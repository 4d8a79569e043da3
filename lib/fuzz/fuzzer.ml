module Engine = Rio_sim.Engine
module Costs = Rio_sim.Costs
module Kernel = Rio_kernel.Kernel
module Fs = Rio_fs.Fs
module Fs_types = Rio_fs.Fs_types
module Fsck = Rio_fs.Fsck
module Phys_mem = Rio_mem.Phys_mem
module Rio_cache = Rio_core.Rio_cache
module Warm_reboot = Rio_core.Warm_reboot
module Vista = Rio_txn.Vista
module Trace = Rio_obs.Trace
module Forensics = Rio_obs.Forensics
module Pool = Rio_parallel.Pool
module Run = Rio_harness.Run
module World = Rio_world.World
module Boundary = Rio_check.Boundary
module Explorer = Rio_check.Explorer
module Prng = Rio_util.Prng
module Gen = Rio_workload.Script.Gen
module Cov = Rio_cov.Cov
module Json = Rio_util.Json

exception Invalid_program

(* ---------------- one attempt ---------------- *)

(* One world build + program run, optionally crashing at boundary [trip]
   and auditing the recovery. Everything the fuzzer and the shrinker do is
   a pure function of (spec, seed, ops, trip) — that is what makes trials
   shardable across domains and counterexamples replayable. *)

type attempt = {
  boundaries : int;  (** Boundaries emitted (all of them when not tripped). *)
  labels : string list;  (** Their labels, in ordinal order. *)
  op_starts : int array;
      (** [op_starts.(k)] = first ordinal of op [k]; length ops+1, the last
          entry closing the final op's range. *)
  crashed_during : int option;  (** Index of the op the trip interrupted. *)
  tripped : string option;  (** The tripped boundary's label. *)
  problems : string list;  (** Contract violations found after recovery. *)
}

let make_rio ~(spec : Explorer.spec) kernel =
  ignore
    (Rio_cache.create ~shadow:spec.Explorer.shadow ~registry:spec.Explorer.registry
       ~mem:(Kernel.mem kernel) ~layout:(Kernel.layout kernel) ~mmu:(Kernel.mmu kernel)
       ~engine:(Kernel.engine kernel) ~costs:(Kernel.costs kernel) ~hooks:(Kernel.hooks kernel)
       ~pool_alloc:(Kernel.pool_alloc kernel) ~protection:spec.Explorer.protection ~dev:1 ()
      : Rio_cache.t)

(* ---------------- world templates ---------------- *)

(* The expensive part of an attempt used to be the world build (boot +
   format + mount + payload setup, ~ms each); every attempt now rents a
   frozen {!World} template and rewinds it in O(dirty pages). Templates
   are per-domain (worker domains are spawned fresh by each
   [Pool.map_list], so the cache amortizes within one fan-out; the main
   domain keeps its cache for the whole process at [-j 1]) and keyed by
   everything the build depends on, so a restored world is byte-for-byte
   the world a fresh build would produce. The [--reference] mode
   ({!World.set_use_templates}[ false]) and any traced replay skip the
   cache and build from scratch — same [attempt_body] either way. *)

let build_world ~obs ~(spec : Explorer.spec) ~seed =
  World.create ~obs ~protection:spec.Explorer.protection ~shadow:spec.Explorer.shadow
    ~registry:spec.Explorer.registry ~policy:spec.Explorer.policy ~backend:spec.Explorer.backend
    ~wb_unordered:spec.Explorer.wb_unordered ~seed ()

let attach_probe ~obs w =
  let probe = Boundary.create ~mem:(World.mem w) ~obs () in
  Boundary.instrument_hooks probe (World.hooks w);
  Boundary.instrument_disk probe (World.disk w);
  probe

type single_tpl = { sw : World.t; sprobe : Boundary.t; spay : Program.world }
type tasks_tpl = { tw : World.t; tprobe : Boundary.t; tpay : Program.tworld }

type cache = {
  singles : (string, single_tpl) Hashtbl.t;
  multis : (string, tasks_tpl) Hashtbl.t;
}

(* A campaign touches one (spec, seed) per worker at a time; the matrix
   walks four specs. Blow the whole cache on overflow — eviction order
   would otherwise be hash-table order, and nothing here needs LRU. *)
let cache_cap = 4

let caches =
  Domain.DLS.new_key (fun () -> { singles = Hashtbl.create 8; multis = Hashtbl.create 8 })

let evict_if_full tbl dispose =
  if Hashtbl.length tbl >= cache_cap then begin
    Hashtbl.iter (fun _ e -> dispose e) tbl;
    Hashtbl.reset tbl
  end

let single_template ~(spec : Explorer.spec) ~seed =
  let c = Domain.DLS.get caches in
  let key =
    Printf.sprintf "%s@%s/%d" spec.Explorer.label
      (Rio_disk.Backend.to_string spec.Explorer.backend)
      seed
  in
  let e =
    match Hashtbl.find_opt c.singles key with
    | Some e -> e
    | None ->
      evict_if_full c.singles (fun e ->
          Boundary.drop_capture e.sprobe;
          World.dispose e.sw);
      let w = build_world ~obs:Trace.null ~spec ~seed in
      let probe = attach_probe ~obs:Trace.null w in
      let pay = Program.setup (World.fs w) in
      let vst = Vista.save pay.Program.store in
      World.on_restore w (fun () ->
          Boundary.drop_capture probe;
          Vista.restore pay.Program.store vst);
      World.freeze w;
      let e = { sw = w; sprobe = probe; spay = pay } in
      Hashtbl.replace c.singles key e;
      e
  in
  (* Restore at attempt START, not end: an exception escaping one attempt
     (Invalid_program, most commonly) can never poison the next. *)
  ignore (World.restore e.sw : int);
  e

(* The attempt proper, over an already-built world. Owns no lifecycle:
   the template path rewinds before the next rental, the fresh path
   disposes in its [Fun.protect]. *)
let attempt_body ~(spec : Explorer.spec) w probe (pay : Program.world) ~ops ~trip =
  let engine = World.engine w in
  let kernel = World.kernel w in
  let fs = World.fs w in
  Vista.set_observer pay.Program.store (Boundary.vista_event probe);
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let op_starts = Array.make (n + 1) 0 in
  Boundary.arm probe ~trip_at:trip;
  let crashed = ref None in
  (try
     for k = 0 to n - 1 do
       op_starts.(k) <- Boundary.emitted probe;
       match Program.exec pay arr.(k) with
       | () -> ()
       | exception Boundary.Crash_here ->
         crashed := Some k;
         raise Stdlib.Exit
       | exception Fs_types.Fs_error _ ->
         (* Only shrinker-made sub-programs can be invalid; generated
            programs are valid by construction. *)
         Boundary.disarm probe;
         raise Invalid_program
     done
   with Stdlib.Exit -> ());
  Boundary.disarm probe;
  let total = Boundary.emitted probe in
  let filled_from = match !crashed with Some k -> k + 1 | None -> n in
  for i = filled_from to n do
    op_starts.(i) <- total
  done;
  let labels = Boundary.labels probe in
  match !crashed with
  | None ->
    { boundaries = total; labels; op_starts; crashed_during = None; tripped = None; problems = [] }
  | Some k ->
    assert (Boundary.has_crash_image probe);
    Fs.crash fs;
    let tripped = Boundary.tripped_label probe in
    let problems =
      if spec.Explorer.cold then begin
        (* Cold recovery: the memory image is LOST — drop the capture
           instead of restoring it. Only the committed disk survives;
           fsck repairs it and a fresh kernel boots on it. The audit is
           the sync-durability contract ({!Program.check_cold}): data a
           completed [Sync] pushed out must read back exact. *)
        Boundary.drop_capture probe;
        let report = Fsck.run ~disk:(World.disk w) in
        if report.Fsck.unrecoverable then []
        else begin
          let kernel2 =
            Kernel.boot_on_disk ~engine ~costs:(World.costs w) (World.config w)
              ~disk:(Kernel.disk kernel)
          in
          make_rio ~spec kernel2;
          let problems =
            match Kernel.mount kernel2 ~policy:spec.Explorer.policy with
            | fs2 -> (
              try Program.check_cold fs2 ~ops ~in_flight:k
              with Fs_types.Fs_error m -> [ "cold recovery check raised: " ^ m ])
            | exception Fs_types.Fs_error _ ->
              (* A torn superblock/root can leave the image unmountable;
                 the cold contract forgives structural loss. *)
              []
          in
          Phys_mem.retire (Kernel.mem kernel2);
          problems
        end
      end
      else begin
        Boundary.restore_crash_image probe;
        let recovered = ref None in
        ignore
          (Warm_reboot.perform ~mem:(World.mem w) ~disk:(World.disk w) ~layout:(World.layout w)
             ~engine
             ~reboot:(fun () ->
               let kernel2 =
                 Kernel.boot_warm ~engine ~costs:(World.costs w) (World.config w)
                   ~mem:(Kernel.mem kernel) ~disk:(Kernel.disk kernel)
               in
               make_rio ~spec kernel2;
               let fs2 = Kernel.mount kernel2 ~policy:spec.Explorer.policy in
               recovered := Some fs2;
               fs2)
            : Warm_reboot.report);
        let fs2 = match !recovered with Some f -> f | None -> assert false in
        try Program.check fs2 ~ops ~in_flight:k
        with Fs_types.Fs_error m -> [ "recovery check raised: " ^ m ]
      end
    in
    {
      boundaries = total;
      labels;
      op_starts;
      crashed_during = Some k;
      tripped;
      problems;
    }

let run_attempt ?(obs = Trace.null) ~(spec : Explorer.spec) ~seed ~ops ~trip () =
  if (not (Trace.enabled obs)) && World.templates_on () then begin
    let e = single_template ~spec ~seed in
    attempt_body ~spec e.sw e.sprobe e.spay ~ops ~trip
  end
  else begin
    (* Reference / traced path: build from scratch, run, throw away. *)
    let w = build_world ~obs ~spec ~seed in
    let probe = attach_probe ~obs w in
    let pay = Program.setup (World.fs w) in
    Fun.protect
      ~finally:(fun () ->
        Boundary.drop_capture probe;
        World.dispose w)
      (fun () -> attempt_body ~spec w probe pay ~ops ~trip)
  end

(* ---------------- one fuzz trial ---------------- *)

type raw_violation = {
  r_ops : Gen.op list;
  r_boundaries : int;
  r_ordinal : int;
  r_in_flight : int;
  r_problems : string list;
}

type outcome = Clean of int  (** boundaries enumerated *) | Bad of raw_violation

(* Largest k with op_starts.(k) <= r: the op in flight at boundary r. *)
let in_flight_of op_starts r =
  let n = Array.length op_starts - 1 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if op_starts.(i) <= r then k := i
  done;
  !k

(* Stratified boundary choice: bucket the schedule by label class
   ({!Rio_cov.Cov.label_class} — "meta-torn", "registry-update",
   "vista-commit-start", ...), pick a class uniformly, then an ordinal
   within it. A uniform pick over ordinals would almost always land in
   the data-store windows that dominate long schedules and starve the
   rare metadata/registry boundaries where the atomicity protocol
   actually lives. [prefer] is the coverage feedback hook: when any of
   the named classes appear in this schedule, the class pick is
   restricted to those — campaigns steer later trials into the cells
   earlier trials never crashed in. Deterministic in (prng, prefer). *)
let pick_boundary prng ~prefer labels =
  let classes = Hashtbl.create 16 in
  let order = ref [] in
  List.iteri
    (fun i l ->
      let cls = Cov.label_class l in
      match Hashtbl.find_opt classes cls with
      | Some ords -> Hashtbl.replace classes cls (i :: ords)
      | None ->
        order := cls :: !order;
        Hashtbl.replace classes cls [ i ])
    labels;
  let order = Array.of_list (List.rev !order) in
  let wanted =
    Array.of_list (List.filter (fun c -> Array.exists (String.equal c) order) prefer)
  in
  let pool = if Array.length wanted > 0 then wanted else order in
  let cls = pool.(Prng.int prng (Array.length pool)) in
  let ords = Array.of_list (List.rev (Hashtbl.find classes cls)) in
  ords.(Prng.int prng (Array.length ords))

let fuzz_one ?(prefer = []) ?(with_cov = false) ~spec ~world_seed ~max_ops ~prng_seed () =
  let prng = Prng.create ~seed:prng_seed in
  let nops = 1 + Prng.int prng max_ops in
  (* Under the idle write-back policy the [Sync] barrier is meaningful
     (it drains the write-behind pipeline), and the cold-recovery specs
     need it in programs — it is what they owe anything to. Elsewhere it
     stays off so fixed-seed programs are unchanged. *)
  let gspec =
    if spec.Explorer.policy = Fs.Rio_idle then { Program.gen_spec with Gen.sync = true }
    else Program.gen_spec
  in
  let ops = Gen.generate ~prng gspec ~ops:nops in
  let counting = run_attempt ~spec ~seed:world_seed ~ops ~trip:(-1) () in
  let cov = if with_cov then Some (Cov.create ()) else None in
  Option.iter (fun c -> Cov.note_schedule c ~labels:counting.labels) cov;
  if counting.boundaries = 0 then (Clean 0, cov)
  else begin
    let r = pick_boundary prng ~prefer counting.labels in
    let a = run_attempt ~spec ~seed:world_seed ~ops ~trip:r () in
    let in_flight = in_flight_of counting.op_starts r in
    let problems =
      match a.crashed_during with
      | Some _ -> a.problems
      | None -> [ Printf.sprintf "crash point %d was not reached on replay" r ]
    in
    Option.iter
      (fun c ->
        let outcome =
          if a.crashed_during = None then Cov.Unreached
          else if problems = [] then Cov.Survived
          else Cov.Violated
        in
        Cov.record c
          ~cls:(Cov.label_class (List.nth counting.labels r))
          ~op:(Gen.kind (List.nth ops in_flight))
          ~ordinal:r outcome)
      cov;
    if problems = [] then (Clean counting.boundaries, cov)
    else
      ( Bad
          {
            r_ops = ops;
            r_boundaries = counting.boundaries;
            r_ordinal = r;
            r_in_flight = in_flight;
            r_problems = problems;
          },
        cov )
  end

(* ---------------- the shrinker ---------------- *)

(* Delta-debugging over two axes: drop ops the failure does not need, then
   walk the crash ordinal down. Everything after the in-flight op is dead
   weight by construction (the crash preempts it), so each step
   re-truncates there first. Every candidate is re-validated by actually
   running it; invalid sub-programs (a removed creat orphans an append)
   just fail validation. Deterministic: same inputs, same minimum. *)

let shrink_budget = 400

let truncate_after ops k = List.filteri (fun i _ -> i <= k) ops
let remove_at i ops = List.filteri (fun j _ -> j <> i) ops

let shrink ~spec ~world_seed ~ops ~ordinal =
  let budget = ref shrink_budget in
  let attempts = ref 0 in
  let spend () =
    incr attempts;
    decr budget
  in
  (* A candidate the file system accepts can still be one the model
     rejects (an overwrite past the end of a file whose growing op was
     dropped): validate against the model first, as the task path does. *)
  let attempt ops ~trip =
    (match Gen.Model.after ~root:Program.root ops with
    | (_ : Gen.Model.t) -> ()
    | exception Not_found -> raise Invalid_program);
    run_attempt ~spec ~seed:world_seed ~ops ~trip ()
  in
  let count ops =
    spend ();
    match attempt ops ~trip:(-1) with
    | a -> Some a
    | exception Invalid_program -> None
  in
  let fails ops r =
    spend ();
    match attempt ops ~trip:r with
    | a -> a.crashed_during <> None && a.problems <> []
    | exception Invalid_program -> false
  in
  (* Keep only ops.(0..k); the boundary stream up to [r] is untouched, so
     the same ordinal still reproduces — no re-validation needed. *)
  let slice starts k = Array.sub starts 0 (k + 2) in
  (* One removal pass: try dropping each op before the in-flight one,
     remapping the ordinal into the in-flight op's shifted boundary range
     (same offset first, then the rest of the range). Restarts on every
     success, so it ends at a local fixpoint. *)
  let rec removal_pass ops starts r k =
    let offset = r - starts.(k) in
    let rec try_i i =
      if i >= k || !budget <= 0 then (ops, starts, r, k)
      else begin
        let cand = remove_at i ops in
        let ck = k - 1 in
        match count cand with
        | None -> try_i (i + 1)
        | Some c ->
          let lo = c.op_starts.(ck) and hi = c.op_starts.(ck + 1) in
          let prefer = lo + offset in
          let range = List.init (hi - lo) (fun j -> lo + j) in
          let ordered =
            if prefer >= lo && prefer < hi then
              prefer :: List.filter (fun x -> x <> prefer) range
            else range
          in
          (match List.find_opt (fun r' -> !budget > 0 && fails cand r') ordered with
          | Some r' -> removal_pass cand (slice c.op_starts ck) r' ck
          | None -> try_i (i + 1))
      end
    in
    try_i 0
  in
  (* Smallest failing ordinal below r, if any (the boundary stream of a
     fixed program is fixed, so this is a plain linear scan). *)
  let scan_below ops r =
    let rec go r' =
      if r' >= r || !budget <= 0 then None else if fails ops r' then Some r' else go (r' + 1)
    in
    go 0
  in
  let rec outer ops starts r k =
    let ops, starts, r, k = removal_pass ops starts r k in
    match scan_below ops r with
    | Some r' ->
      let k' = in_flight_of starts r' in
      outer (truncate_after ops k') (slice starts k') r' k'
    | None -> (ops, r, k)
  in
  match count ops with
  | None -> (ops, ordinal, in_flight_of [| 0 |] 0, !attempts) (* unreachable: ops ran once *)
  | Some c ->
    let k0 = in_flight_of c.op_starts ordinal in
    let ops, r, k = outer (truncate_after ops k0) (slice c.op_starts k0) ordinal k0 in
    (ops, r, k, !attempts)

(* ---------------- reports ---------------- *)

type counterexample = {
  trial : int;
  original_ops : int;
  original_ordinal : int;
  ops : Gen.op list;
  ordinal : int;
  in_flight : int;
  label : string;
  problems : string list;
  narrative : string list;
  shrink_attempts : int;
}

type report = {
  spec : Explorer.spec;
  seed : int;
  trials : int;
  max_ops : int;
  boundaries : int;  (** Summed over trials (each trial's full schedule). *)
  violations : int;  (** Trials whose crash broke a contract. *)
  counterexamples : counterexample list;  (** Shrunk; at most [shrink_limit]. *)
  coverage : Cov.t option;  (** The campaign's coverage map ([config.coverage]). *)
}

let default_max_ops = 8

let shrink_and_describe ~recorder ~spec ~world_seed (t, v) =
  let ops, ordinal, in_flight, shrink_attempts =
    shrink ~spec ~world_seed ~ops:v.r_ops ~ordinal:v.r_ordinal
  in
  (* Replay the minimum with the flight recorder live: the narrative is
     the counterexample's evidence. *)
  let obs = recorder () in
  let final = run_attempt ~obs ~spec ~seed:world_seed ~ops ~trip:ordinal () in
  let problems = if final.problems = [] then v.r_problems else final.problems in
  {
    trial = t;
    original_ops = List.length v.r_ops;
    original_ordinal = v.r_ordinal;
    ops;
    ordinal;
    in_flight;
    label = Option.value final.tripped ~default:"?";
    problems;
    narrative = Forensics.narrative (Forensics.summarize obs);
    shrink_attempts;
  }

(* With coverage on, trials run in fixed-size rounds: between rounds the
   per-trial maps collected so far merge (in trial order) and the
   still-unhit boundary classes become the next round's [prefer] set for
   {!pick_boundary}. The round boundaries and the merge order are both
   pure functions of the trial indices, so the feedback — and therefore
   the whole campaign — stays byte-identical at any [domains]. *)
let coverage_round = 32

let run ?(spec = Explorer.rio_prot) ?(max_ops = default_max_ops) ?(shrink_limit = 3)
    (cfg : Run.config) =
  let world_seed = cfg.Run.seed in
  let report_done = Run.reporter cfg ~total:cfg.Run.trials in
  let with_cov = cfg.Run.coverage in
  let run_round ~prefer ts =
    Pool.map_list ~domains:cfg.Run.domains
      (fun t ->
        let out, tcov =
          fuzz_one ~prefer ~with_cov ~spec ~world_seed ~max_ops
            ~prng_seed:((world_seed * 0x1000003) + t) ()
        in
        report_done ~label:spec.Explorer.label ~detail:(Printf.sprintf "trial %d" t);
        (t, out, tcov))
      ts
  in
  let cov = if with_cov then Some (Cov.create ()) else None in
  let outcomes =
    match cov with
    | None ->
      List.map (fun (t, o, _) -> (t, o)) (run_round ~prefer:[] (List.init cfg.Run.trials Fun.id))
    | Some c ->
      let acc = ref [] in
      let rec rounds start =
        if start < cfg.Run.trials then begin
          let stop = min cfg.Run.trials (start + coverage_round) in
          let res =
            run_round ~prefer:(Cov.unhit_classes c)
              (List.init (stop - start) (fun i -> start + i))
          in
          List.iter (fun (_, _, tcov) -> Option.iter (fun s -> Cov.merge ~into:c s) tcov) res;
          acc := List.rev_append (List.map (fun (t, o, _) -> (t, o)) res) !acc;
          rounds stop
        end
      in
      rounds 0;
      List.rev !acc
  in
  let boundaries =
    List.fold_left
      (fun acc (_, o) -> acc + match o with Clean b -> b | Bad v -> v.r_boundaries)
      0 outcomes
  in
  let bad = List.filter_map (fun (t, o) -> match o with Bad v -> Some (t, v) | _ -> None) outcomes in
  let to_shrink = List.filteri (fun i _ -> i < shrink_limit) bad in
  (* Shrinking re-runs many candidate trials per violation, so only the
     first [shrink_limit] violations (in trial order: deterministic) get
     the treatment; the rest are counted. *)
  let recorder = Run.recorder cfg in
  let counterexamples =
    Pool.map_list ~domains:cfg.Run.domains
      (shrink_and_describe ~recorder ~spec ~world_seed)
      to_shrink
  in
  Option.iter
    (fun c -> List.iter (fun cx -> Cov.add_shrink c cx.shrink_attempts) counterexamples)
    cov;
  {
    spec;
    seed = cfg.Run.seed;
    trials = cfg.Run.trials;
    max_ops;
    boundaries;
    violations = List.length bad;
    counterexamples;
    coverage = cov;
  }

(* ---------------- rendering ---------------- *)

let spec_line (spec : Explorer.spec) =
  Printf.sprintf "%s (protection %s, shadow %s, registry %s, backend %s%s)" spec.Explorer.label
    (if spec.Explorer.protection then "on" else "off")
    (if spec.Explorer.shadow then "on" else "off")
    (if spec.Explorer.registry then "on" else "off")
    (Rio_disk.Backend.to_string spec.Explorer.backend)
    (if spec.Explorer.cold then ", cold recovery" else "")

let render_counterexample buf c =
  Buffer.add_string buf
    (Printf.sprintf
       "\ncounterexample (trial %d): shrunk %d ops @ boundary %d -> %d ops @ boundary %d (%d runs)\n"
       c.trial c.original_ops c.original_ordinal (List.length c.ops) c.ordinal c.shrink_attempts);
  Buffer.add_string buf "  program:\n";
  List.iteri
    (fun i op ->
      Buffer.add_string buf
        (Printf.sprintf "    %d. %s%s\n" (i + 1) (Gen.describe op)
           (if i = c.in_flight then "   <- in flight at the crash" else "")))
    c.ops;
  Buffer.add_string buf (Printf.sprintf "  crash at boundary %d (%s)\n" c.ordinal c.label);
  List.iter (fun p -> Buffer.add_string buf ("  problem: " ^ p ^ "\n")) c.problems;
  if c.narrative <> [] then begin
    Buffer.add_string buf "  trace:\n";
    List.iter (fun l -> Buffer.add_string buf ("    | " ^ l ^ "\n")) c.narrative
  end

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("crash-schedule fuzz: " ^ spec_line r.spec ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf "  seed %d, %d trials of <= %d ops, %d boundaries enumerated\n" r.seed
       r.trials r.max_ops r.boundaries);
  Buffer.add_string buf
    (if r.violations = 0 then "  violations: 0\n"
     else
       Printf.sprintf "  violations: %d (%d shrunk below)\n" r.violations
         (List.length r.counterexamples));
  List.iter (fun c -> render_counterexample buf c) r.counterexamples;
  Buffer.contents buf

let counterexample_json c =
  Json.Obj
    [
      ("trial", Json.Int c.trial);
      ("original_ops", Json.Int c.original_ops);
      ("original_ordinal", Json.Int c.original_ordinal);
      ("ops", Json.Arr (List.map (fun op -> Json.Str (Gen.describe op)) c.ops));
      ("ordinal", Json.Int c.ordinal);
      ("in_flight", Json.Int c.in_flight);
      ("label", Json.Str c.label);
      ("problems", Json.Arr (List.map (fun p -> Json.Str p) c.problems));
      ("shrink_attempts", Json.Int c.shrink_attempts);
    ]

let report_json r =
  Json.Obj
    ([
       ("spec", Explorer.spec_json r.spec);
       ("seed", Json.Int r.seed);
       ("trials", Json.Int r.trials);
       ("max_ops", Json.Int r.max_ops);
       ("boundaries", Json.Int r.boundaries);
       ("violations", Json.Int r.violations);
       ("counterexamples", Json.Arr (List.map counterexample_json r.counterexamples));
     ]
    @ match r.coverage with Some cov -> [ ("coverage", Cov.to_json cov) ] | None -> [])

(* ---------------- the ablation matrix ---------------- *)

type matrix_entry = { entry_report : report; ok : bool }

(* The acceptance bar for a caught ablation: at least one counterexample
   shrunk to a handful of ops — a catch nobody can read is not evidence. *)
let max_repro_ops = 6

let run_matrix ?(specs = Explorer.fuzz_specs) ?max_ops ?shrink_limit (cfg : Run.config) =
  List.map
    (fun (spec : Explorer.spec) ->
      let entry_report = run ~spec ?max_ops ?shrink_limit cfg in
      let ok =
        if spec.Explorer.expect_safe then entry_report.violations = 0
        else
          entry_report.violations > 0
          && List.exists
               (fun c -> List.length c.ops <= max_repro_ops && c.problems <> [])
               entry_report.counterexamples
      in
      { entry_report; ok })
    specs

let matrix_ok entries = List.for_all (fun e -> e.ok) entries

let matrix_json entries =
  Json.Arr
    (List.map
       (fun e ->
         Json.Obj [ ("ok", Json.Bool e.ok); ("report", report_json e.entry_report) ])
       entries)

let render_matrix entries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "fuzz matrix: the fuzzer must catch the unsafe ablations\n";
  Buffer.add_string buf
    (Printf.sprintf "  %-14s %8s %11s %11s  %-9s %s\n" "configuration" "trials" "boundaries"
       "violations" "expected" "verdict");
  List.iter
    (fun e ->
      let r = e.entry_report in
      let expected = if r.spec.Explorer.expect_safe then "safe" else "unsafe" in
      let verdict =
        match (e.ok, r.spec.Explorer.expect_safe) with
        | true, true -> "ok"
        | true, false -> "ok (caught, shrunk)"
        | false, true -> "MISMATCH: violations in a safe configuration"
        | false, false -> "MISMATCH: unsafe configuration not caught (or repro too big)"
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-14s %8d %11d %11d  %-9s %s\n" r.spec.Explorer.label r.trials
           r.boundaries r.violations expected verdict))
    entries;
  List.iter
    (fun e ->
      let r = e.entry_report in
      if (not r.spec.Explorer.expect_safe) && r.counterexamples <> [] then begin
        Buffer.add_string buf (Printf.sprintf "\n[%s]" r.spec.Explorer.label);
        render_counterexample buf (List.hd r.counterexamples)
      end)
    entries;
  Buffer.contents buf

(* ---------------- multi-task fuzzing ---------------- *)

module Task = Rio_task.Task
module Sched = Rio_task.Sched

(* One multi-task attempt: the same build/run/crash/audit cycle as
   [run_attempt], but the programs run as scheduled task fibers, every
   boundary is a preemption point, and the audit is per task. Pure in
   (spec, locking, seed, sched_seed, progs, trip). *)

type tattempt = {
  t_boundaries : int;
  t_labels : string list;
  t_bounds : (int * int) array array;
      (** [t_bounds.(i).(k)] = boundary-ordinal range [\[start, stop)] of
          task [i]'s op [k]; [-1] where the op never started/finished. *)
  t_progress : Program.progress array;  (** Per task, when the run ended. *)
  t_crasher : (int * int) option;  (** [(task, op)] whose boundary tripped. *)
  t_raised : (int * int * string) option;
      (** A fiber raised [Fs_error] mid-run (ablation symptom). *)
  t_tripped : string option;
  t_problems : string list;
}

let tasks_template ~(spec : Explorer.spec) ~seed ~tasks =
  let c = Domain.DLS.get caches in
  let key =
    Printf.sprintf "%s@%s/%d/%d" spec.Explorer.label
      (Rio_disk.Backend.to_string spec.Explorer.backend)
      seed tasks
  in
  let e =
    match Hashtbl.find_opt c.multis key with
    | Some e -> e
    | None ->
      evict_if_full c.multis (fun e ->
          Boundary.drop_capture e.tprobe;
          World.dispose e.tw);
      let w = build_world ~obs:Trace.null ~spec ~seed in
      let probe = attach_probe ~obs:Trace.null w in
      let pay = Program.setup_tasks (World.fs w) ~tasks in
      let vsts = Array.map Vista.save pay.Program.stores in
      World.on_restore w (fun () ->
          Boundary.drop_capture probe;
          Array.iteri (fun i s -> Vista.restore s vsts.(i)) pay.Program.stores);
      World.freeze w;
      let e = { tw = w; tprobe = probe; tpay = pay } in
      Hashtbl.replace c.multis key e;
      e
  in
  ignore (World.restore e.tw : int);
  e

let attempt_tasks_body ~(spec : Explorer.spec) ~locking w probe (tw : Program.tworld)
    ~sched_seed ~(progs : Gen.op list array) ~trip =
  let engine = World.engine w in
  let kernel = World.kernel w in
  let fs = World.fs w in
  let nt = Array.length progs in
  Array.iter (fun s -> Vista.set_observer s (Boundary.vista_event probe)) tw.Program.stores;
  let oparr = Array.map Array.of_list progs in
  let starts = Array.map (fun ops -> Array.make (Array.length ops) (-1)) oparr in
  let stops = Array.map (fun ops -> Array.make (Array.length ops) (-1)) oparr in
  let cur = Array.make nt (-1) in
  let sched = Sched.create ~seed:sched_seed in
  (* The wiring that makes interleaving x crash-point one schedule space:
     scheduler events become boundaries (crashable), boundaries become
     preemption points (interleavable). *)
  Sched.set_on_point sched (Boundary.point probe);
  Boundary.set_on_emit probe (fun _ -> Sched.preempt sched);
  for i = 0 to nt - 1 do
    let th = Task.make ~id:i ~name:(Printf.sprintf "t%d" i) in
    Sched.spawn sched th (fun task ->
        Task.chdir task (Program.task_root i);
        Array.iteri
          (fun k op ->
            cur.(i) <- k;
            starts.(i).(k) <- Boundary.emitted probe;
            Program.exec_task sched ~locking ~task tw ~store:tw.Program.stores.(i) op;
            stops.(i).(k) <- Boundary.emitted probe;
            cur.(i) <- -1)
          oparr.(i))
  done;
  Boundary.arm probe ~trip_at:trip;
  let crashed = ref false in
  let raised = ref None in
  (try Sched.run sched with
  | Boundary.Crash_here -> crashed := true
  | Fs_types.Fs_error m -> (
    match Sched.crashed sched with
    | Some task ->
      let i = Task.id task in
      raised := Some (i, cur.(i), m)
    | None -> raise (Fs_types.Fs_error m)));
  Boundary.disarm probe;
  let total = Boundary.emitted probe in
  let labels = Boundary.labels probe in
  let t_bounds =
    Array.init nt (fun i ->
        Array.init (Array.length oparr.(i)) (fun k -> (starts.(i).(k), stops.(i).(k))))
  in
  (* Where each task stood when the run ended: ops execute in order, so
     the first op with a start but no stop is the in-flight one. *)
  let progress_of i =
    let n = Array.length oparr.(i) in
    let rec go k =
      if k >= n then Program.Completed n
      else if stops.(i).(k) >= 0 then go (k + 1)
      else if starts.(i).(k) >= 0 then Program.Interrupted k
      else Program.Completed k
    in
    go 0
  in
  let t_progress = Array.init nt progress_of in
  let t_crasher =
    if !crashed then
      match Sched.crashed sched with
      | Some task ->
        let i = Task.id task in
        if cur.(i) >= 0 then Some (i, cur.(i)) else None
      | None -> None
    else None
  in
  let base =
    {
      t_boundaries = total;
      t_labels = labels;
      t_bounds;
      t_progress;
      t_crasher;
      t_raised = !raised;
      t_tripped = Boundary.tripped_label probe;
      t_problems = [];
    }
  in
  if not !crashed then begin
    match !raised with
    | Some (i, k, m) ->
      (* No crash was injected: the interleaving alone broke an op. *)
      let opdesc =
        if k >= 0 && k < Array.length oparr.(i) then Gen.describe oparr.(i).(k) else "?"
      in
      { base with t_problems = [ Printf.sprintf "t%d: %s raised: %s" i opdesc m ] }
    | None ->
      if trip >= 0 then base (* trip unreached; the caller flags it *)
      else begin
        (* Counting pass: audit the final state too — a lost update that
           never crashes anything is still a violation. *)
        let problems =
          try Program.check_tasks fs ~progs ~progress:t_progress
          with Fs_types.Fs_error m -> [ "final audit raised: " ^ m ]
        in
        { base with t_problems = problems }
      end
  end
  else begin
    assert (Boundary.has_crash_image probe);
    Fs.crash fs;
    Boundary.restore_crash_image probe;
    let recovered = ref None in
    ignore
      (Warm_reboot.perform ~mem:(Kernel.mem kernel) ~disk:(Kernel.disk kernel)
         ~layout:(Kernel.layout kernel) ~engine
         ~reboot:(fun () ->
           let kernel2 =
             Kernel.boot_warm ~engine ~costs:(World.costs w) (World.config w)
               ~mem:(Kernel.mem kernel) ~disk:(Kernel.disk kernel)
           in
           make_rio ~spec kernel2;
           let fs2 = Kernel.mount kernel2 ~policy:spec.Explorer.policy in
           recovered := Some fs2;
           fs2)
        : Warm_reboot.report);
    let fs2 = match !recovered with Some f -> f | None -> assert false in
    let problems =
      try Program.check_tasks fs2 ~progs ~progress:t_progress
      with Fs_types.Fs_error m -> [ "recovery check raised: " ^ m ]
    in
    { base with t_problems = problems }
  end

let run_attempt_tasks ?(obs = Trace.null) ~(spec : Explorer.spec) ~locking ~seed ~sched_seed
    ~(progs : Gen.op list array) ~trip () =
  (* Pre-validate against the model: sub-programs the shrinker builds can
     be self-inconsistent, and catching that here costs no world rental. *)
  Array.iteri
    (fun i ops ->
      match Gen.Model.after ~root:(Program.task_root i) ops with
      | (_ : Gen.Model.t) -> ()
      | exception Not_found -> raise Invalid_program)
    progs;
  if (not (Trace.enabled obs)) && World.templates_on () then begin
    let e = tasks_template ~spec ~seed ~tasks:(Array.length progs) in
    attempt_tasks_body ~spec ~locking e.tw e.tprobe e.tpay ~sched_seed ~progs ~trip
  end
  else begin
    let w = build_world ~obs ~spec ~seed in
    let probe = attach_probe ~obs w in
    let pay = Program.setup_tasks (World.fs w) ~tasks:(Array.length progs) in
    Fun.protect
      ~finally:(fun () ->
        Boundary.drop_capture probe;
        World.dispose w)
      (fun () -> attempt_tasks_body ~spec ~locking w probe pay ~sched_seed ~progs ~trip)
  end

(* ---------------- one multi-task trial ---------------- *)

type traw = {
  tb_progs : Gen.op list array;
  tb_sched_seed : int;
  tb_boundaries : int;
  tb_ordinal : int option;  (** [None]: the interleaving alone failed. *)
  tb_crasher : (int * int) option;
  tb_problems : string list;
}

type toutcome = TClean of int | TBad of traw

let fuzz_one_tasks ?(prefer = []) ?(with_cov = false) ~spec ~locking ~tasks ~world_seed ~max_ops
    ~prng_seed () =
  let prng = Prng.create ~seed:prng_seed in
  let progs =
    Array.of_list
      (Gen.generate_tasks ~prng ~spec_of:Program.task_gen_spec ~ops_per_task:max_ops tasks)
  in
  let sched_seed = Prng.int prng 0x40000000 in
  let counting =
    run_attempt_tasks ~spec ~locking ~seed:world_seed ~sched_seed ~progs ~trip:(-1) ()
  in
  let cov = if with_cov then Some (Cov.create ()) else None in
  Option.iter (fun c -> Cov.note_schedule c ~labels:counting.t_labels) cov;
  if counting.t_problems <> [] then
    ( TBad
        {
          tb_progs = progs;
          tb_sched_seed = sched_seed;
          tb_boundaries = counting.t_boundaries;
          tb_ordinal = None;
          tb_crasher = None;
          tb_problems = counting.t_problems;
        },
      cov )
  else if counting.t_boundaries = 0 then (TClean 0, cov)
  else begin
    let r = pick_boundary prng ~prefer counting.t_labels in
    let a = run_attempt_tasks ~spec ~locking ~seed:world_seed ~sched_seed ~progs ~trip:r () in
    let reached = a.t_crasher <> None || a.t_raised <> None in
    let problems =
      if not reached then [ Printf.sprintf "crash point %d was not reached on replay" r ]
      else a.t_problems
    in
    Option.iter
      (fun c ->
        let outcome =
          if not reached then Cov.Unreached
          else if problems = [] then Cov.Survived
          else Cov.Violated
        in
        let cls = Cov.label_class (List.nth counting.t_labels r) in
        match a.t_crasher with
        | Some (ci, ck) ->
          Cov.record c ~task:"crasher" ~cls ~op:(Gen.kind (List.nth progs.(ci) ck)) ~ordinal:r
            outcome;
          Array.iteri
            (fun i p ->
              if i <> ci then
                match p with
                | Program.Interrupted k ->
                  Cov.record c ~task:"bystander" ~cls
                    ~op:(Gen.kind (List.nth progs.(i) k))
                    ~ordinal:r outcome
                | Program.Completed _ -> ())
            a.t_progress
        | None -> ())
      cov;
    if problems = [] then (TClean counting.t_boundaries, cov)
    else
      ( TBad
          {
            tb_progs = progs;
            tb_sched_seed = sched_seed;
            tb_boundaries = counting.t_boundaries;
            tb_ordinal = Some r;
            tb_crasher = a.t_crasher;
            tb_problems = problems;
          },
        cov )
  end

(* ---------------- the multi-task shrinker ---------------- *)

(* Delta-debugging over three axes now: empty out whole bystander tasks,
   drop single ops, walk the crash ordinal down. Removing ANY op changes
   the scheduler's candidate sets and therefore the whole interleaving,
   so — unlike the single-task shrinker — every candidate is re-counted
   and the ordinal remapped into the crasher's in-flight op's new
   boundary window (same offset first). Two failure flavors:
   - crash flavor ([ordinal = Some r]): candidate fails if tripping at a
     remapped ordinal still crashes and still breaks a contract;
   - no-crash flavor ([ordinal = None]): candidate fails if the counting
     run alone still raises or fails its final audit. *)

let total_ops progs = Array.fold_left (fun a ops -> a + List.length ops) 0 progs
let nonempty_tasks progs = Array.fold_left (fun a ops -> a + if ops = [] then 0 else 1) 0 progs

let shrink_tasks ~spec ~locking ~world_seed ~sched_seed ~progs ~ordinal ~crasher =
  let budget = ref shrink_budget in
  let attempts = ref 0 in
  let spend () =
    incr attempts;
    decr budget
  in
  let count progs =
    spend ();
    match run_attempt_tasks ~spec ~locking ~seed:world_seed ~sched_seed ~progs ~trip:(-1) () with
    | a -> Some a
    | exception Invalid_program -> None
  in
  let fails_at progs r =
    spend ();
    match run_attempt_tasks ~spec ~locking ~seed:world_seed ~sched_seed ~progs ~trip:r () with
    | a -> (a.t_crasher <> None || a.t_raised <> None) && a.t_problems <> []
    | exception Invalid_program -> false
  in
  let fails_nocrash progs =
    match count progs with None -> false | Some a -> a.t_problems <> []
  in
  let nt = Array.length progs in
  match (ordinal, crasher) with
  | None, _ ->
    (* No-crash flavor: the predicate is one counting run. *)
    let cur = ref progs in
    let changed = ref true in
    while !changed && !budget > 0 do
      changed := false;
      for i = 0 to nt - 1 do
        if !cur.(i) <> [] && !budget > 0 then begin
          let cand = Array.copy !cur in
          cand.(i) <- [];
          if fails_nocrash cand then begin
            cur := cand;
            changed := true
          end
        end
      done;
      let rec drop_at i j =
        if !budget > 0 && j < List.length !cur.(i) then begin
          let cand = Array.copy !cur in
          cand.(i) <- remove_at j !cur.(i);
          if fails_nocrash cand then begin
            cur := cand;
            changed := true;
            drop_at i j
          end
          else drop_at i (j + 1)
        end
      in
      for i = 0 to nt - 1 do
        drop_at i 0
      done
    done;
    (!cur, None, !attempts)
  | Some r0, None ->
    (* Crashed but unattributed (should not happen): nothing safe to do. *)
    (progs, Some r0, !attempts)
  | Some r0, Some (c, k0) ->
    let cur = ref progs and r = ref r0 and k = ref k0 in
    let off = ref 0 in
    (match count !cur with
    | Some a0 ->
      let lo, _ = a0.t_bounds.(c).(k0) in
      if lo >= 0 then off := r0 - lo
    | None -> ());
    (* Re-count a candidate and look for a failing ordinal inside the
       crasher op's new boundary window, preferring the same offset. *)
    let try_remap cand ~k:k' =
      if !budget <= 0 then None
      else
        match count cand with
        | None -> None
        | Some a ->
          if k' < 0 || k' >= Array.length a.t_bounds.(c) then None
          else begin
            let lo, hi = a.t_bounds.(c).(k') in
            if lo < 0 || hi <= lo then None
            else begin
              let prefer = lo + !off in
              let range = List.init (hi - lo) (fun j -> lo + j) in
              let ordered =
                if prefer >= lo && prefer < hi then
                  prefer :: List.filter (fun x -> x <> prefer) range
                else range
              in
              match List.find_opt (fun r' -> !budget > 0 && fails_at cand r') ordered with
              | Some r' -> Some (r', lo)
              | None -> None
            end
          end
    in
    let adopt cand k' (r', lo) =
      cur := cand;
      k := k';
      r := r';
      off := r' - lo
    in
    (* Initial truncation: drop every op no task had started at the crash
       (one trip run tells us where each task stood). *)
    (spend ();
     match
       run_attempt_tasks ~spec ~locking ~seed:world_seed ~sched_seed ~progs:!cur ~trip:!r ()
     with
     | a ->
       let cand =
         Array.mapi
           (fun i ops ->
             let keep =
               match a.t_progress.(i) with
               | Program.Completed n -> n
               | Program.Interrupted kk -> kk + 1
             in
             List.filteri (fun j _ -> j < keep) ops)
           !cur
       in
       if cand <> !cur then (
         match try_remap cand ~k:!k with
         | Some hit -> adopt cand !k hit
         | None -> ())
     | exception Invalid_program -> ());
    let changed = ref true in
    while !changed && !budget > 0 do
      changed := false;
      for i = 0 to nt - 1 do
        if i <> c && !cur.(i) <> [] && !budget > 0 then begin
          let cand = Array.copy !cur in
          cand.(i) <- [];
          match try_remap cand ~k:!k with
          | Some hit ->
            adopt cand !k hit;
            changed := true
          | None -> ()
        end
      done;
      let rec drop_at i j =
        if !budget > 0 && j < List.length !cur.(i) then begin
          if i = c && j = !k then drop_at i (j + 1)
          else begin
            let cand = Array.copy !cur in
            cand.(i) <- remove_at j !cur.(i);
            let k' = if i = c && j < !k then !k - 1 else !k in
            match try_remap cand ~k:k' with
            | Some hit ->
              adopt cand k' hit;
              changed := true;
              drop_at i j
            | None -> drop_at i (j + 1)
          end
        end
      in
      for i = 0 to nt - 1 do
        drop_at i 0
      done
    done;
    (* Finally walk the ordinal down within the fixed program. *)
    let rec scan r' =
      if r' < !r && !budget > 0 then
        if fails_at !cur r' then r := r' else scan (r' + 1)
    in
    scan 0;
    (!cur, Some !r, !attempts)

(* ---------------- multi-task reports ---------------- *)

type tcounterexample = {
  tc_trial : int;
  tc_original_ops : int;  (** Total ops across tasks before shrinking. *)
  tc_progs : Gen.op list array;  (** Shrunk; empty lists = shrunk-away tasks. *)
  tc_sched_seed : int;
  tc_ordinal : int option;  (** [None]: no crash needed (interleaving alone). *)
  tc_crasher : (int * int) option;
  tc_label : string option;
  tc_problems : string list;
  tc_shrink_attempts : int;
}

type treport = {
  tr_spec : Explorer.spec;
  tr_locking : bool;
  tr_seed : int;
  tr_tasks : int;
  tr_trials : int;
  tr_max_ops : int;
  tr_boundaries : int;
  tr_violations : int;
  tr_counterexamples : tcounterexample list;
  tr_coverage : Cov.t option;
}

let tshrink_and_describe ~spec ~locking ~world_seed (t, v) =
  let progs, ordinal, shrink_attempts =
    shrink_tasks ~spec ~locking ~world_seed ~sched_seed:v.tb_sched_seed ~progs:v.tb_progs
      ~ordinal:v.tb_ordinal ~crasher:v.tb_crasher
  in
  (* Replay the minimum once for the final attribution. *)
  let final =
    match
      run_attempt_tasks ~spec ~locking ~seed:world_seed ~sched_seed:v.tb_sched_seed ~progs
        ~trip:(match ordinal with Some r -> r | None -> -1) ()
    with
    | a -> Some a
    | exception Invalid_program -> None
  in
  let problems =
    match final with Some a when a.t_problems <> [] -> a.t_problems | _ -> v.tb_problems
  in
  {
    tc_trial = t;
    tc_original_ops = total_ops v.tb_progs;
    tc_progs = progs;
    tc_sched_seed = v.tb_sched_seed;
    tc_ordinal = ordinal;
    tc_crasher = (match final with Some a when ordinal <> None -> a.t_crasher | _ -> None);
    tc_label = (match final with Some a -> a.t_tripped | None -> None);
    tc_problems = problems;
    tc_shrink_attempts = shrink_attempts;
  }

let run_tasks ?(spec = Explorer.rio_prot) ?(locking = true) ?(max_ops = default_max_ops)
    ?(shrink_limit = 3) ~tasks (cfg : Run.config) =
  let world_seed = cfg.Run.seed in
  let report_done = Run.reporter cfg ~total:cfg.Run.trials in
  let with_cov = cfg.Run.coverage in
  let run_round ~prefer ts =
    Pool.map_list ~domains:cfg.Run.domains
      (fun t ->
        let out, tcov =
          fuzz_one_tasks ~prefer ~with_cov ~spec ~locking ~tasks ~world_seed ~max_ops
            ~prng_seed:((world_seed * 0x1000003) + t) ()
        in
        report_done ~label:spec.Explorer.label ~detail:(Printf.sprintf "trial %d" t);
        (t, out, tcov))
      ts
  in
  let cov = if with_cov then Some (Cov.create ()) else None in
  let outcomes =
    match cov with
    | None ->
      List.map (fun (t, o, _) -> (t, o)) (run_round ~prefer:[] (List.init cfg.Run.trials Fun.id))
    | Some c ->
      let acc = ref [] in
      let rec rounds start =
        if start < cfg.Run.trials then begin
          let stop = min cfg.Run.trials (start + coverage_round) in
          let res =
            run_round ~prefer:(Cov.unhit_classes c) (List.init (stop - start) (fun i -> start + i))
          in
          List.iter (fun (_, _, tcov) -> Option.iter (fun s -> Cov.merge ~into:c s) tcov) res;
          acc := List.rev_append (List.map (fun (t, o, _) -> (t, o)) res) !acc;
          rounds stop
        end
      in
      rounds 0;
      List.rev !acc
  in
  let boundaries =
    List.fold_left
      (fun acc (_, o) -> acc + match o with TClean b -> b | TBad v -> v.tb_boundaries)
      0 outcomes
  in
  let bad =
    List.filter_map (fun (t, o) -> match o with TBad v -> Some (t, v) | _ -> None) outcomes
  in
  let to_shrink = List.filteri (fun i _ -> i < shrink_limit) bad in
  let counterexamples =
    Pool.map_list ~domains:cfg.Run.domains (tshrink_and_describe ~spec ~locking ~world_seed)
      to_shrink
  in
  Option.iter
    (fun c -> List.iter (fun cx -> Cov.add_shrink c cx.tc_shrink_attempts) counterexamples)
    cov;
  {
    tr_spec = spec;
    tr_locking = locking;
    tr_seed = cfg.Run.seed;
    tr_tasks = tasks;
    tr_trials = cfg.Run.trials;
    tr_max_ops = max_ops;
    tr_boundaries = boundaries;
    tr_violations = List.length bad;
    tr_counterexamples = counterexamples;
    tr_coverage = cov;
  }

let render_tcounterexample buf c =
  Buffer.add_string buf
    (Printf.sprintf
       "\ncounterexample (trial %d): shrunk %d ops -> %d ops over %d tasks (sched seed %d, %d runs)\n"
       c.tc_trial c.tc_original_ops (total_ops c.tc_progs) (nonempty_tasks c.tc_progs)
       c.tc_sched_seed c.tc_shrink_attempts);
  Array.iteri
    (fun i ops ->
      if ops <> [] then begin
        Buffer.add_string buf (Printf.sprintf "  task t%d:\n" i);
        List.iteri
          (fun j op ->
            let mark =
              match c.tc_crasher with
              | Some (ci, ck) when ci = i && ck = j -> "   <- in flight at the crash"
              | _ -> ""
            in
            Buffer.add_string buf (Printf.sprintf "    %d. %s%s\n" (j + 1) (Gen.describe op) mark))
          ops
      end)
    c.tc_progs;
  (match c.tc_ordinal with
  | Some r ->
    Buffer.add_string buf
      (Printf.sprintf "  crash at boundary %d (%s)\n" r
         (Option.value c.tc_label ~default:"?"))
  | None -> Buffer.add_string buf "  no crash injected: the interleaving alone fails\n");
  List.iter (fun p -> Buffer.add_string buf ("  problem: " ^ p ^ "\n")) c.tc_problems

let render_tasks r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "interleaving fuzz: %s, %d tasks, locking %s\n" (spec_line r.tr_spec)
       r.tr_tasks
       (if r.tr_locking then "on" else "off"));
  Buffer.add_string buf
    (Printf.sprintf "  seed %d, %d trials of <= %d ops per task, %d boundaries enumerated\n"
       r.tr_seed r.tr_trials r.tr_max_ops r.tr_boundaries);
  Buffer.add_string buf
    (if r.tr_violations = 0 then "  violations: 0\n"
     else
       Printf.sprintf "  violations: %d (%d shrunk below)\n" r.tr_violations
         (List.length r.tr_counterexamples));
  List.iter (fun c -> render_tcounterexample buf c) r.tr_counterexamples;
  Buffer.contents buf

let tcounterexample_json c =
  Json.Obj
    [
      ("trial", Json.Int c.tc_trial);
      ("original_ops", Json.Int c.tc_original_ops);
      ( "tasks",
        Json.Arr
          (Array.to_list
             (Array.map
                (fun ops -> Json.Arr (List.map (fun op -> Json.Str (Gen.describe op)) ops))
                c.tc_progs)) );
      ("sched_seed", Json.Int c.tc_sched_seed);
      ("ordinal", match c.tc_ordinal with Some r -> Json.Int r | None -> Json.Null);
      ( "crasher",
        match c.tc_crasher with
        | Some (i, k) -> Json.Arr [ Json.Int i; Json.Int k ]
        | None -> Json.Null );
      ("label", match c.tc_label with Some l -> Json.Str l | None -> Json.Null);
      ("problems", Json.Arr (List.map (fun p -> Json.Str p) c.tc_problems));
      ("shrink_attempts", Json.Int c.tc_shrink_attempts);
    ]

let treport_json r =
  Json.Obj
    ([
       ("spec", Explorer.spec_json r.tr_spec);
       ("locking", Json.Bool r.tr_locking);
       ("seed", Json.Int r.tr_seed);
       ("tasks", Json.Int r.tr_tasks);
       ("trials", Json.Int r.tr_trials);
       ("max_ops", Json.Int r.tr_max_ops);
       ("boundaries", Json.Int r.tr_boundaries);
       ("violations", Json.Int r.tr_violations);
       ("counterexamples", Json.Arr (List.map tcounterexample_json r.tr_counterexamples));
     ]
    @ match r.tr_coverage with Some cov -> [ ("coverage", Cov.to_json cov) ] | None -> [])

(* The multi-task acceptance bar, mirroring [run_matrix]: with locking the
   campaign must be clean; without it (the lost-update ablation) it must
   be caught with a readable repro — at most [max_repro_ops] total ops
   over at most two non-empty tasks. *)
let tasks_caught r =
  r.tr_violations > 0
  && List.exists
       (fun c ->
         total_ops c.tc_progs <= max_repro_ops
         && nonempty_tasks c.tc_progs <= 2
         && c.tc_problems <> [])
       r.tr_counterexamples
