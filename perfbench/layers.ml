(* The traced runs: per-layer metrics.

   Each traced unit runs the untraced library call first (its wall time is
   the overhead reference, its [Gc.quick_stat] deltas the allocation
   figures), then the {!Replica} rebuild of the same call on the same
   inputs, and compares the two. Before the workload's own units, every
   traced run also traces a fixed reference set — a few fuzz trials
   (warm, cold and a caught ablation, with a shrink), two Table 1
   attempts, the three memory-fs Table 2 cells, one explorer scenario at
   1 and 2 domains, one task fuzz — each checked against its library
   entry. A layer metric comes from the workload's own spans; a layer the
   workload never reaches is measured on the reference set instead, so no
   metric reads a constant 0 and such metrics stay flat unless that layer
   changes. On any replica difference no layer numbers are published. *)

module Run = Rio_harness.Run
module Reliability = Rio_harness.Reliability
module Performance = Rio_harness.Performance
module Campaign = Rio_fault.Campaign
module Fault_type = Rio_fault.Fault_type
module Explorer = Rio_check.Explorer
module Fuzzer = Rio_fuzz.Fuzzer
module Json = Rio_util.Json
module Stats = Rio_util.Stats
open Common
open Workloads

(* What a traced run measured outside the spans. *)
type tracing = {
  ctx : Replica.ctx;
  mutable lib_s : float;  (** Untraced library calls on the traced inputs. *)
  mutable rep_s : float;  (** The traced rebuilds of the same calls. *)
  mutable gc_trials : gc_delta;  (** Library fuzz trials and Table 1 attempts. *)
  mutable trials : int;
  mutable gc_cells : gc_delta;  (** Library Table 2 cells. *)
  mutable cells : int;
  mutable attempts : (float * bool) list;  (** Table 1: host s, discarded. *)
  mutable templates : int;
  mutable paper_errs : float list;
  mutable shrink_runs : int;
  mutable explore_s : float;
  mutable explore_serial_s : float;
  mutable crash_points : int;
  mutable task_trials : int;
  mutable task_s : float;
  mutable units : int;
}

let new_tracing () =
  {
    ctx = Replica.create_ctx ();
    lib_s = 0.;
    rep_s = 0.;
    gc_trials = gc_zero;
    trials = 0;
    gc_cells = gc_zero;
    cells = 0;
    attempts = [];
    templates = 0;
    paper_errs = [];
    shrink_runs = 0;
    explore_s = 0.;
    explore_serial_s = 0.;
    crash_points = 0;
    task_trials = 0;
    task_s = 0.;
    units = 0;
  }

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* An untraced library call: timed as the overhead reference, its
   allocation charged to [`Trials n] or to one [`Cell]. *)
let lib_call tr kind f =
  let (r, g), dt = timed (fun () -> with_gc f) in
  tr.lib_s <- tr.lib_s +. dt;
  (match kind with
  | `Trials n ->
    tr.gc_trials <- gc_add tr.gc_trials g;
    tr.trials <- tr.trials + n
  | `Cell ->
    tr.gc_cells <- gc_add tr.gc_cells g;
    tr.cells <- tr.cells + 1);
  r

let rep_call tr f =
  let r, dt = timed f in
  tr.rep_s <- tr.rep_s +. dt;
  r

let trial_id = ref 0

let next_trial tr =
  incr trial_id;
  Span.set_trial tr.ctx.Replica.sp !trial_id

let span tr name f = Span.record tr.ctx.Replica.sp name f

(* ---------------- replicas of the library calls ---------------- *)

(* Fuzz trials [0, trials) of [spec] at [seed], traced; then, as
   [Fuzzer.run] does, the first [shrink_limit] violations shrunk and
   replayed with a live recorder. Returns (violations, boundaries,
   verdict). *)
let replica_fuzz tr ~spec ~seed ~trials ~shrink_limit =
  let ctx = tr.ctx in
  let t = Replica.template ctx ~spec ~seed in
  tr.templates <- tr.templates + 1;
  let bad = ref [] and boundaries = ref 0 in
  Fun.protect ~finally:(fun () -> Replica.dispose t) (fun () ->
      for i = 0 to trials - 1 do
        next_trial tr;
        let r = Replica.fuzz_trial ctx ~spec t ~world_seed:seed ~max_ops:Fuzzer.default_max_ops i in
        boundaries := !boundaries + r.Replica.boundaries;
        if r.Replica.problems <> [] then bad := r :: !bad
      done);
  let bad = List.rev !bad in
  let repros =
    List.filteri (fun k _ -> k < shrink_limit) bad
    |> List.map (fun (r : Replica.trial) ->
           next_trial tr;
           let ops, ordinal, _, runs =
             span tr "fuzz.shrink" (fun () ->
                 Fuzzer.shrink ~spec ~world_seed:seed ~ops:r.Replica.ops ~ordinal:r.Replica.ordinal)
           in
           tr.shrink_runs <- tr.shrink_runs + runs;
           let final =
             span tr "fuzz.replay" (fun () ->
                 Fuzzer.run_attempt ~obs:(Run.recorder Run.default ()) ~spec ~seed ~ops ~trip:ordinal ())
           in
           (List.length ops, if final.Fuzzer.problems = [] then r.Replica.problems else final.Fuzzer.problems))
  in
  let violations = List.length bad in
  (violations, !boundaries, fuzz_ok spec ~violations repros)

(* [Fuzzer.run] and its replica on the same trials: same violations,
   boundaries and verdict, or the same exception. Returns the library
   result. *)
let fuzz_pair o tr ~spec ~seed ~trials ~shrink_limit =
  let cfg = { Run.default with Run.seed; trials; domains = 1 } in
  let lib = lib_call tr (`Trials trials) (fun () -> result (fun () -> Fuzzer.run ~spec ~shrink_limit cfg)) in
  let rep = rep_call tr (fun () -> result (fun () -> replica_fuzz tr ~spec ~seed ~trials ~shrink_limit)) in
  (match (lib, rep) with
  | Ok r, Ok (v, b, ok) when v = r.Fuzzer.violations && b = r.Fuzzer.boundaries && ok = report_ok r -> ()
  | Error x, Error y when x = y -> ()
  | _ -> mismatch o (Printf.sprintf "fuzz %s seed %d differs from Fuzzer.run" spec.Explorer.label seed));
  lib

(* The attempts of one Table 1 cell until it crashes (or the cap), traced:
   (crashes, attempts, corruptions), as [Reliability.run] counts them. *)
let replica_cell tr system fault ~base ~max =
  let cell_seed = t1_cell_seed ~base system fault in
  let rec go k corr =
    if k > max then (0, max, corr)
    else begin
      next_trial tr;
      let r, dt = timed (fun () -> Replica.table1_attempt tr.ctx t1_config system fault ~seed:(cell_seed + k)) in
      tr.attempts <- (dt, r.Replica.discarded) :: tr.attempts;
      if r.Replica.discarded then go (k + 1) corr
      else (1, k, if r.Replica.corrupted then corr + 1 else corr)
    end
  in
  go 1 0

(* A Table 2 cell through both paths: equal simulated seconds, or the same
   exception. Returns the replica's result. *)
let cell_pair o tr c ~seed (p, pname) =
  let label = c.Performance.label ^ " x " ^ pname in
  let lib = lib_call tr `Cell (fun () -> result (fun () -> t2_measure c ~seed p)) in
  next_trial tr;
  let rep = rep_call tr (fun () -> result (fun () -> Replica.table2_cell tr.ctx c ~scale:t2_scale ~seed p)) in
  (match (lib, rep) with
  | Ok (x, y), Ok (x', y') when Float.equal x x' && Float.equal y y' -> ()
  | Error x, Error y when x = y -> ()
  | _ -> mismatch o (Printf.sprintf "table2 cell %s seed %d differs from measure_workload" label seed));
  (match rep with
  | Ok r -> Option.iter (fun e -> tr.paper_errs <- e :: tr.paper_errs) (paper_err c pname r)
  | Error _ -> ());
  (label, rep)

let explore tr ~spec ?only ~seed () =
  let cfg d = { Run.default with Run.seed; domains = d } in
  next_trial tr;
  let r, dt = timed (fun () -> span tr "check.explorer_run" (fun () -> Explorer.run ~spec ?only (cfg matrix_domains))) in
  tr.explore_s <- tr.explore_s +. dt;
  tr.crash_points <- tr.crash_points + Explorer.crash_points r;
  let _, dt1 = timed (fun () -> span tr "check.explorer_run_serial" (fun () -> Explorer.run ~spec ?only (cfg 1))) in
  tr.explore_serial_s <- tr.explore_serial_s +. dt1;
  r

let fuzz_tasks tr ~locking ~tasks cfg =
  next_trial tr;
  let r, dt = timed (fun () -> span tr "task.run_tasks" (fun () -> Fuzzer.run_tasks ~locking ~tasks cfg)) in
  tr.task_s <- tr.task_s +. dt;
  tr.task_trials <- tr.task_trials + r.Fuzzer.tr_trials;
  r

(* ---------------- the reference set and the self-check ---------------- *)

let same_attempt (x : Fuzzer.attempt) (y : Fuzzer.attempt) =
  x.Fuzzer.boundaries = y.Fuzzer.boundaries
  && x.Fuzzer.labels = y.Fuzzer.labels
  && x.Fuzzer.problems = y.Fuzzer.problems
  && x.Fuzzer.crashed_during = y.Fuzzer.crashed_during
  && x.Fuzzer.tripped = y.Fuzzer.tripped

(* Single fuzz attempts against [Fuzzer.run_attempt]: the counting pass
   and the stratified crash pass of trials 0-3. *)
let attempt_check o tr ~spec ~seed =
  let t = Replica.template tr.ctx ~spec ~seed in
  Fun.protect ~finally:(fun () -> Replica.dispose t) @@ fun () ->
  for trial = 0 to 3 do
    let prng, ops = Replica.trial_program ~spec ~world_seed:seed ~max_ops:Fuzzer.default_max_ops trial in
    let check trip =
      let lib = Fuzzer.run_attempt ~spec ~seed ~ops ~trip () in
      if not (same_attempt lib (Replica.attempt tr.ctx ~spec t ~ops ~trip)) then
        mismatch o
          (Printf.sprintf "fuzz attempt %s seed %d trial %d trip %d differs from Fuzzer.run_attempt"
             spec.Explorer.label seed trial trip);
      lib
    in
    let counting = check (-1) in
    if counting.Fuzzer.boundaries > 0 then
      ignore (check (Replica.pick_boundary prng counting.Fuzzer.labels) : Fuzzer.attempt)
  done

(* Single Table 1 attempts against [Campaign.run_one], on a disk-based and
   a Rio system, until each crashes (at most four attempts). *)
let table1_check o tr ~seed =
  let fault = List.nth Fault_type.all (seed mod List.length Fault_type.all) in
  List.iter
    (fun system ->
      let rec go k =
        if k <= 4 then begin
          let s = t1_cell_seed ~base:(t1_base seed 0) system fault + k in
          let lib = Campaign.run_one t1_config system fault ~seed:s in
          next_trial tr;
          let rep, dt = timed (fun () -> Replica.table1_attempt tr.ctx t1_config system fault ~seed:s) in
          tr.attempts <- (dt, rep.Replica.discarded) :: tr.attempts;
          if
            lib.Campaign.discarded <> rep.Replica.discarded
            || lib.Campaign.crash_message <> rep.Replica.crash_message
            || lib.Campaign.corrupted <> rep.Replica.corrupted
          then
            mismatch o
              (Printf.sprintf "table1 attempt %s/%s seed %d differs from Campaign.run_one"
                 (Campaign.system_slug system) (Fault_type.slug fault) s);
          if lib.Campaign.discarded then go (k + 1)
        end
      in
      go 1)
    [ Campaign.Disk_based; Campaign.Rio_with_protection ]

let reference_set o tr ~seed =
  List.iter
    (fun spec ->
      attempt_check o tr ~spec ~seed;
      ignore (fuzz_pair o tr ~spec ~seed ~trials:8 ~shrink_limit:1 : (Fuzzer.report, string) result))
    [ Explorer.rio_prot; Explorer.wb_cold; Explorer.registry_off ];
  table1_check o tr ~seed;
  let mfs = List.hd Performance.configurations in
  List.iter (fun p -> ignore (cell_pair o tr mfs ~seed p : string * (float * float, string) result)) t2_programs;
  ignore (explore tr ~spec:Explorer.rio_prot ~only:[ "creat" ] ~seed () : Explorer.report);
  ignore
    (fuzz_tasks tr ~locking:true ~tasks:2 { Run.default with Run.seed; trials = 8; domains = matrix_domains }
      : Fuzzer.treport);
  tr.units <- 1

(* ---------------- the workloads, traced ---------------- *)

let traced_fuzz_trials = 100

let fuzz_rio o tr ~seed ~seconds =
  ignore
    (timed_units ~seconds (fun i ->
         let seed = unit_seed seed i in
         o.attempted <- o.attempted + traced_fuzz_trials;
         (match fuzz_pair o tr ~spec:fuzz_spec ~seed ~trials:traced_fuzz_trials ~shrink_limit with
         | Ok r -> safe_violations o ~seed r
         | Error e -> fail o (Printf.sprintf "fuzz-rio seed %d: %s" seed e));
         tr.units <- tr.units + 1;
         traced_fuzz_trials)
      : (float * int) list)

(* Table 1 one cell at a time, in whole sweeps. *)
let table1 o tr ~seed ~seconds =
  let n = Array.length t1_cells in
  ignore
    (timed_units ~pass:n ~seconds (fun i ->
         let system, fault = t1_cells.(i mod n) in
         let base = t1_base seed (i / n) in
         let lib = lib_call tr (`Trials 0) (fun () -> t1_run ~systems:[ system ] ~faults:[ fault ] ~base ()) in
         let lc = match lib.Reliability.cells with [ (_, _, c) ] -> c | _ -> assert false in
         tr.trials <- tr.trials + lc.Reliability.attempts;
         let crashes, attempts, corruptions =
           rep_call tr (fun () -> replica_cell tr system fault ~base ~max:max_attempts)
         in
         o.attempted <- o.attempted + crashes;
         if
           crashes <> lc.Reliability.crashes
           || attempts <> lc.Reliability.attempts
           || corruptions <> lc.Reliability.corruptions
         then
           mismatch o
             (Printf.sprintf "table1 cell %s/%s base %d differs from Reliability.run"
                (Campaign.system_slug system) (Fault_type.slug fault) base);
         tr.units <- tr.units + 1;
         attempts)
      : (float * int) list)

(* Exactly one pass over the 24 cells, so the cache and disk counts are
   identities of the seed. *)
let table2 o tr ~seed =
  let seed = unit_seed seed 0 in
  List.iter
    (fun (c, p) ->
      o.attempted <- o.attempted + 1;
      match cell_pair o tr c ~seed p with
      | _, Ok _ -> ()
      | label, Error msg -> fail o (Printf.sprintf "table2 seed %d %s: %s" seed label msg))
    t2_cells;
  tr.units <- 1

let verdict_matrix o tr ~seed ~seconds =
  ignore
    (timed_units ~seconds (fun i ->
         let seed = unit_seed seed i in
         (* The fuzz matrix spec by spec, at 1 domain so the untraced call
            is a fair overhead reference for the sequential rebuild. *)
         List.iter
           (fun (spec : Explorer.spec) ->
             let what = "fuzz " ^ spec.Explorer.label in
             match fuzz_pair o tr ~spec ~seed ~trials:matrix_trials ~shrink_limit with
             | Ok r -> verdict o ~seed what (report_ok r)
             | Error e ->
               o.attempted <- o.attempted + 1;
               fail o (Printf.sprintf "verdict-matrix seed %d: %s: %s" seed what e))
           Explorer.fuzz_specs;
         (* The explorer and the task scheduler run as whole library calls. *)
         List.iter
           (fun (spec : Explorer.spec) ->
             let r = explore tr ~spec ~seed () in
             verdict o ~seed ("check " ^ spec.Explorer.label)
               ((Explorer.violation_count r = 0) = spec.Explorer.expect_safe))
           Explorer.matrix_specs;
         let cfg = matrix_cfg ~seed ~domains:matrix_domains in
         ignore
           (task_verdicts o ~seed (fun ~locking ~tasks -> fuzz_tasks tr ~locking ~tasks cfg)
             : (string * Fuzzer.treport) list);
         tr.units <- tr.units + 1;
         matrix_verdicts)
      : (float * int) list)

(* ---------------- metrics ---------------- *)

(* Every per-layer metric, each with whether this run reached its layer. *)
let metrics tr =
  let families = Hashtbl.create 64 in
  Array.iter
    (fun ((s : Span.span), _, _ as x) -> Hashtbl.replace families s.Span.name (x :: Option.value (Hashtbl.find_opt families s.Span.name) ~default:[]))
    (Span.self_times tr.ctx.Replica.sp);
  let family name = Option.value (Hashtbl.find_opt families name) ~default:[] in
  let durs name = List.map (fun (s, _, _) -> Span.dur s *. 1000.) (family name) in
  let fi = float_of_int in
  let avg xs = ratio (sum xs) (fi (List.length xs)) in
  let has name = family name <> [] in
  let mean_ms name = (avg (durs name), has name) in
  let self_ms name = (avg (List.map (fun (_, self, _) -> self *. 1000.) (family name)), has name) in
  let total name = sum (durs name) in
  let count name = List.length (family name) in
  let pct name p = match durs name with [] -> (0., false) | xs -> (Stats.percentile (Array.of_list xs) p, true) in
  let c = tr.ctx.Replica.c in
  let attempts = List.length tr.attempts and discarded = List.filter snd tr.attempts in
  let roots = family "fuzz.trial" @ family "fault.attempt" in
  let gc = gc_add tr.gc_trials tr.gc_cells and gc_ops = tr.trials + tr.cells in
  let fuzzed = has "fuzz.trial" and attempted = attempts > 0 and celled = tr.cells > 0 in
  let per_cell x = (ratio x (fi tr.cells), celled) in
  let hit h m = (ratio (fi h) (fi (h + m)), celled) in
  List.map
    (fun (name, (value, present), unit_) -> (metric name value unit_, present))
    [
      ("fuzz.trial_ms.p50", pct "fuzz.trial" 50., "ms");
      ("fuzz.trial_ms.p99", pct "fuzz.trial" 99., "ms");
      ("world.restore_ms", mean_ms "world.restore", "ms");
      ("world.pages_per_restore", (ratio (fi c.Replica.pages_restored) (fi (count "world.restore")), has "world.restore"), "count");
      ("fuzz.count_pass_share", (ratio (total "fuzz.count_pass") (total "fuzz.trial"), fuzzed), "ratio");
      ("fuzz.crash_pass_ms", mean_ms "fuzz.crash_pass", "ms");
      ("check.crash_image_restore_ms", mean_ms "check.crash_image_restore", "ms");
      ("rio.warm_reboot_self_ms", self_ms "rio.warm_reboot", "ms");
      ("kernel.boot_warm_ms", mean_ms "kernel.boot_warm", "ms");
      ("rio.cache_create_ms", mean_ms "rio.cache_create", "ms");
      ("kernel.mount_ms", mean_ms "kernel.mount", "ms");
      ("fuzz.oracle_ms", mean_ms "fuzz.oracle", "ms");
      ("fuzz.boundaries_per_trial", (ratio (fi c.Replica.boundaries) (fi (count "fuzz.trial")), fuzzed), "count");
      ("gc.alloc_mb_per_trial", (ratio (mb_of_words tr.gc_trials.words) (fi tr.trials), tr.trials > 0), "MB");
      ("gc.major_share", (ratio gc.direct_major gc.words, gc_ops > 0), "ratio");
      ("gc.major_collections_per_1k", (ratio (1000. *. fi gc.majors) (fi gc_ops), gc_ops > 0), "count");
      ("fault.attempt_ms.p50", pct "fault.attempt" 50., "ms");
      ("fault.attempt_ms.p90", pct "fault.attempt" 90., "ms");
      ("fault.discarded_share", (ratio (fi (List.length discarded)) (fi attempts), attempted), "ratio");
      ( "fault.discarded_time_share",
        (ratio (sum (List.map fst discarded)) (sum (List.map fst tr.attempts)), attempted),
        "ratio" );
      ("cpu.ns_per_instr", (ratio (total "kernel.run_activity" *. 1e6) (fi c.Replica.instr_activity), attempted), "ns");
      ("cpu.instr_per_attempt", (ratio (fi c.Replica.instr_total) (fi attempts), attempted), "count");
      ("vm.tlb_miss_ratio", (ratio (fi c.Replica.tlb_misses) (fi (c.Replica.tlb_hits + c.Replica.tlb_misses)), attempted), "ratio");
      ("kernel.run_activity_ms", mean_ms "kernel.run_activity", "ms");
      ("workload.memtest_step_ms", mean_ms "workload.memtest_step", "ms");
      ("workload.andrew_step_ms", mean_ms "workload.andrew_step", "ms");
      ("workload.memtest_audit_ms", mean_ms "workload.memtest_audit", "ms");
      ("world.create_ms", mean_ms "world.create", "ms");
      ("fs.fsck_ms", mean_ms "fs.fsck", "ms");
      ("kernel.boot_on_disk_ms", mean_ms "kernel.boot_on_disk", "ms");
      ("workload.cp_setup_ms", mean_ms "workload.cp_setup", "ms");
      ("workload.cp_ms", mean_ms "workload.cp", "ms");
      ("workload.rm_ms", mean_ms "workload.rm", "ms");
      ("workload.sdet_ms", mean_ms "workload.sdet", "ms");
      ("workload.andrew_ms", mean_ms "workload.andrew", "ms");
      ("fs.data_cache.hit_ratio", hit c.Replica.data_hits c.Replica.data_misses, "ratio");
      ("fs.meta_cache.hit_ratio", hit c.Replica.meta_hits c.Replica.meta_misses, "ratio");
      ("fs.data_cache.writebacks", per_cell (fi c.Replica.data_writebacks), "count");
      ("fs.meta_cache.evictions", per_cell (fi c.Replica.meta_evictions), "count");
      ("disk.requests", per_cell (fi c.Replica.disk_requests), "count");
      ("disk.sectors_written", per_cell (fi c.Replica.disk_sectors_written), "count");
      ("disk.seeks", per_cell (fi c.Replica.disk_seeks), "count");
      ("disk.busy_s", per_cell (fi c.Replica.disk_busy_us /. 1e6), "s");
      ("gc.alloc_mb_per_cell", per_cell (mb_of_words tr.gc_cells.words), "MB");
      ("check.crash_points_per_s", (ratio (fi tr.crash_points) tr.explore_s, tr.explore_s > 0.), "1/s");
      ("fuzz.shrink_ms", mean_ms "fuzz.shrink", "ms");
      ("fuzz.shrink_runs", (ratio (fi tr.shrink_runs) (fi (count "fuzz.shrink")), has "fuzz.shrink"), "count");
      ("task.trials_per_s", (ratio (fi tr.task_trials) tr.task_s, tr.task_s > 0.), "1/s");
      ("world.create_count", (ratio (fi tr.templates) (fi tr.units), tr.templates > 0), "count");
      ("parallel.speedup", (ratio tr.explore_serial_s tr.explore_s, tr.explore_s > 0.), "ratio");
      ("trace.overhead_share", (ratio (tr.rep_s -. tr.lib_s) tr.lib_s, tr.lib_s > 0.), "ratio");
      ( "trace.child_cover_share",
        ( ratio (sum (List.map (fun (_, _, ch) -> ch) roots)) (sum (List.map (fun (s, _, _) -> Span.dur s) roots)),
          roots <> [] ),
        "ratio" );
      ("harness.paper_log_err", (avg tr.paper_errs, tr.paper_errs <> []), "ln");
    ]

(* The workload's own figure where it reached the layer, else the
   reference set's. *)
let layer_metrics ~own ~reference =
  List.map2 (fun (m, present) (r, _) -> if present then m else r) (metrics own) (metrics reference)

(* Per span family: calls, total and self host ms, allocated MB. *)
let family_table tr =
  let tbl = Hashtbl.create 32 and order = ref [] in
  Array.iter
    (fun ((s : Span.span), self, _) ->
      let n, tot, sf, al =
        match Hashtbl.find_opt tbl s.Span.name with
        | Some v -> v
        | None ->
          order := s.Span.name :: !order;
          (0, 0., 0., 0.)
      in
      Hashtbl.replace tbl s.Span.name (n + 1, tot +. Span.dur s, sf +. self, al +. s.Span.alloc_words))
    (Span.self_times tr.ctx.Replica.sp);
  Json.Obj
    (List.rev_map
       (fun name ->
         let n, tot, sf, al = Hashtbl.find tbl name in
         ( name,
           Json.Obj
             [
               ("calls", Json.Int n);
               ("total_ms", Json.Float (tot *. 1000.));
               ("self_ms", Json.Float (sf *. 1000.));
               ("alloc_mb", Json.Float (mb_of_words al));
             ] ))
       !order)
