(* The four workloads, measured with tracing off: each repeats a fixed
   unit through the public entry points riobench calls, on seeds derived
   from the run's seed, until the run's seconds have passed. *)

module Run = Rio_harness.Run
module Reliability = Rio_harness.Reliability
module Performance = Rio_harness.Performance
module Paper_data = Rio_harness.Paper_data
module Campaign = Rio_fault.Campaign
module Fault_type = Rio_fault.Fault_type
module Explorer = Rio_check.Explorer
module Fuzzer = Rio_fuzz.Fuzzer
module World = Rio_world.World
module Json = Rio_util.Json

open Common

(* ---------------- fuzz-rio ---------------- *)

let fuzz_unit_trials = 100
let fuzz_spec = Explorer.rio_prot

let fuzz_run ~spec ~seed ~trials = Fuzzer.run ~spec { Run.default with Run.seed; trials; domains = 1 }

(* The first template build and freeze, through the library's own path:
   an empty attempt on a seed no unit uses builds the per-seed template
   in [Fuzzer]'s cache, then rewinds and audits it. *)
let fuzz_template_setup seed =
  time_setup
    (fun k -> Fuzzer.run_attempt ~spec:fuzz_spec ~seed:(1_000_000_000 + (seed * 1000) + k) ~ops:[] ~trip:(-1) ())
    ignore

let safe_violations o ~seed (r : Fuzzer.report) =
  for _ = 1 to r.Fuzzer.violations do
    fail o (Printf.sprintf "fuzz %s seed %d: violation on a safe spec" r.Fuzzer.spec.Explorer.label seed)
  done

(* The --reference settings (fast path off, no templates) must give the
   same fuzz report byte for byte. *)
let reference_check o ~seed =
  let trials = 12 in
  let doc () = Json.to_string (Fuzzer.report_json (fuzz_run ~spec:fuzz_spec ~seed ~trials)) in
  let fast = doc () in
  Rio_util.Fastpath.set false;
  World.set_use_templates false;
  let reference =
    Fun.protect doc ~finally:(fun () ->
        Rio_util.Fastpath.set true;
        World.set_use_templates true)
  in
  if fast <> reference then wrong o "fuzz-rio: --reference settings changed the fuzz report";
  digest_line o "reference check (%d trials, seed %d): %s" trials seed
    (if fast = reference then "identical" else "DIFFERENT")

let fuzz_rio ~seed ~seconds o =
  fuzz_template_setup (unit_seed seed 0);
  let units =
    timed_units ~seconds (fun i ->
        let seed = unit_seed seed i in
        o.attempted <- o.attempted + fuzz_unit_trials;
        match fuzz_run ~spec:fuzz_spec ~seed ~trials:fuzz_unit_trials with
        | r ->
          safe_violations o ~seed r;
          if i = 0 then digest_line o "fuzz report %s" (Json.to_string (Fuzzer.report_json r));
          fuzz_unit_trials
        | exception e ->
          for _ = 1 to fuzz_unit_trials do
            fail o (Printf.sprintf "fuzz-rio seed %d: %s" seed (Printexc.to_string e))
          done;
          0)
  in
  reference_check o ~seed:(unit_seed seed 0);
  (trials_per_s units, [])

(* ---------------- table1 ---------------- *)

let t1_config = Campaign.default_config
let max_attempts = 25 (* Reliability's cap at one crash test per cell *)

(* Reliability derives each cell's seeds from its base seed; bases of
   different units stay 10^7 apart so no two units share an attempt. *)
let t1_base seed i = unit_seed seed i * 10_000_000

let t1_cell_seed ~base system fault =
  let sys_id =
    match system with
    | Campaign.Disk_based -> 1
    | Campaign.Rio_without_protection -> 2
    | Campaign.Rio_with_protection -> 3
  in
  base + (sys_id * 1_000_000) + (Fault_type.id fault * 10_000)

let t1_run ?systems ?faults ~base () =
  Reliability.run ~campaign:t1_config ?systems ?faults
    { Run.default with Run.seed = base; trials = 1; domains = 1 }

let t1_setup seed =
  time_setup
    (fun _ ->
      World.create ~config:t1_config.Campaign.kernel_config ~rio:true ~protection:true
        ~policy:Rio_fs.Fs.Rio_policy ~seed ())
    World.dispose

let t1_cells =
  Array.of_list (List.concat_map (fun s -> List.map (fun f -> (s, f)) Fault_type.all) Campaign.all_systems)

(* Table 1 one (system, fault) cell per unit, sweep after sweep: unit [i]
   is cell [i mod 39] of sweep [i / 39], whose cells share one base seed,
   so a sweep computes exactly the cells of one [Reliability.run]. A trial
   is an attempt, discarded or not, because a cell's number of discarded
   attempts varies with the seed. Cells differ in speed, so trials per
   second is 39 over the sum of each cell's median host time per attempt:
   an attempt of a typical sweep, whichever cells the run's seeds made
   slow. *)
let table1 ~seed ~seconds o =
  t1_setup (t1_base seed 0);
  let crash_tests = ref 0 in
  let n = Array.length t1_cells in
  let times = Hashtbl.create 64 in
  let units =
    timed_units ~pass:n ~seconds (fun i ->
        let system, fault = t1_cells.(i mod n) in
        let base = t1_base seed (i / n) in
        let label = Campaign.system_slug system ^ "/" ^ Fault_type.slug fault in
        match t1_run ~systems:[ system ] ~faults:[ fault ] ~base () with
        | { Reliability.cells = [ (_, _, c) ]; _ } as r ->
          let crashes = c.Reliability.crashes and attempts = c.Reliability.attempts in
          if crashes > 1 || attempts < crashes || (crashes = 0 && attempts <> max_attempts) then
            wrong o (Printf.sprintf "table1 %s: %d crashes in %d attempts" label crashes attempts);
          o.attempted <- o.attempted + crashes;
          crash_tests := !crash_tests + crashes;
          if i < n then
            digest_line o
              "cell %s crashes %d attempts %d corruptions %d paths %d traps %d checksum %d messages %d \
               consistency %d"
              label crashes attempts c.Reliability.corruptions c.Reliability.corrupt_paths
              c.Reliability.protection_traps c.Reliability.checksum_detections r.Reliability.unique_messages
              r.Reliability.unique_consistency_messages;
          attempts
        | _ ->
          wrong o (Printf.sprintf "table1 %s: Reliability.run did not return exactly one cell" label);
          0
        | exception e ->
          fail o (Printf.sprintf "table1 %s base %d: %s" label base (Printexc.to_string e));
          o.attempted <- o.attempted + 1;
          0)
  in
  List.iteri (fun i (dt, k) -> if k > 0 then add_time times (i mod n) (dt /. float_of_int k)) units;
  let host = sum (List.map fst units) in
  ( ratio (float_of_int n) (sum_of_medians times),
    [ metric "crash_tests_per_s" (ratio (float_of_int !crash_tests) host) "1/s" ] )

(* ---------------- table2 ---------------- *)

let t2_scale = 1.0
let t2_programs = [ (`Cp_rm, "cp+rm"); (`Sdet, "sdet"); (`Andrew, "andrew") ]

let t2_cells =
  List.concat_map (fun c -> List.map (fun p -> (c, p)) t2_programs) Performance.configurations

let paper_seconds (c : Performance.configuration) pname =
  Option.map
    (fun p ->
      match pname with
      | "cp+rm" -> p.Paper_data.cp_rm
      | "sdet" -> p.Paper_data.sdet
      | _ -> p.Paper_data.andrew)
    (Paper_data.table2_row c.Performance.label)

let paper_err c pname (a, b) = Option.map (fun ps -> Float.abs (log ((a +. b) /. ps))) (paper_seconds c pname)

let t2_measure c ~seed p =
  Performance.measure_workload ~backend:Rio_disk.Backend.Scsi c ~scale:t2_scale ~seed p

(* The first boot of a Table 2 cell: a fresh paper-scale machine. *)
let t2_setup seed =
  let config =
    {
      Rio_kernel.Kernel.default_config with
      Rio_kernel.Kernel.layout_config = Rio_mem.Layout.paper_config;
      disk_sectors = 640 * 1024;
      seed;
    }
  in
  time_setup (fun _ -> World.create ~config ~rio:false ~seed ()) World.dispose

let finite_pos x = Float.is_finite x && x >= 0.

(* Table 2 one cell per unit, pass after pass: unit [i] is cell [i mod 24]
   of pass [i / 24], whose cells share one seed. A cell's exception is
   contained and counted. Trials per second is 24 over the sum of each
   cell's median time, failed or not (cells take 0.01-2 s, and their host
   work barely depends on the seed); a pass takes ~10 s, so a run holds
   two or three, and a median, unlike a minimum, does not depend on how
   many fit. The first pass is digested and compared with the paper. *)
let table2 ~seed ~seconds o =
  t2_setup (unit_seed seed 0);
  let cells = Array.of_list t2_cells in
  let n = Array.length cells in
  let sim = ref 0. and host = ref 0. and errs = ref [] in
  let units =
    timed_units ~pass:n ~seconds (fun i ->
        let (c : Performance.configuration), (p, pname) = cells.(i mod n) in
        let seed = unit_seed seed (i / n) in
        let label = c.Performance.label ^ " x " ^ pname in
        o.attempted <- o.attempted + 1;
        let t0 = now () in
        (match t2_measure c ~seed p with
        | a, b when finite_pos a && finite_pos b && a +. b > 0. ->
          sim := !sim +. a +. b;
          host := !host +. (now () -. t0);
          if i < n then begin
            Option.iter (fun e -> errs := e :: !errs) (paper_err c pname (a, b));
            digest_line o "cell %s %h %h" label a b
          end
        | a, b ->
          fail o (Printf.sprintf "table2 seed %d %s: non-finite result (%g, %g)" seed label a b);
          if i < n then digest_line o "cell %s NON-FINITE" label
        | exception e ->
          let msg = Printexc.to_string e in
          fail o (Printf.sprintf "table2 seed %d %s: %s" seed label msg);
          if i < n then digest_line o "cell %s FAILED %s" label msg);
        1)
  in
  let times = Hashtbl.create 32 in
  List.iteri (fun i (dt, _) -> add_time times (i mod n) dt) units;
  ( ratio (float_of_int n) (sum_of_medians times),
    [
      metric "sim_s_per_host_s" (ratio !sim !host) "s/s";
      metric "paper_log_err" (ratio (sum !errs) (float_of_int (List.length !errs))) "ln";
    ] )

(* ---------------- verdict-matrix ---------------- *)

let matrix_trials = 40
let matrix_domains = 2
let shrink_limit = 3

let matrix_cfg ~seed ~domains = { Run.default with Run.seed; trials = matrix_trials; domains }

(* [Fuzzer.run_matrix]'s verdict: safe specs fuzz clean; unsafe ones are
   caught and some counterexample shrank to a readable repro. *)
let fuzz_ok (spec : Explorer.spec) ~violations repros =
  if spec.Explorer.expect_safe then violations = 0
  else
    violations > 0
    && List.exists (fun (ops, problems) -> ops <= Fuzzer.max_repro_ops && problems <> []) repros

let report_ok (r : Fuzzer.report) =
  fuzz_ok r.Fuzzer.spec ~violations:r.Fuzzer.violations
    (List.map
       (fun (c : Fuzzer.counterexample) -> (List.length c.Fuzzer.ops, c.Fuzzer.problems))
       r.Fuzzer.counterexamples)

let verdict o ~seed what ok =
  o.attempted <- o.attempted + 1;
  if not ok then fail o (Printf.sprintf "verdict-matrix seed %d: %s disagrees with expect_safe" seed what)

(* Run [f] for [n] verdicts; an exception fails all of them. *)
let guarded o ~seed n what f =
  match f () with
  | v -> Some v
  | exception e ->
    o.attempted <- o.attempted + n;
    for _ = 1 to n do
      fail o (Printf.sprintf "verdict-matrix seed %d: %s: %s" seed what (Printexc.to_string e))
    done;
    None

(* The two task verdicts: four rio-prot tasks must fuzz clean, two
   lock-off tasks must be caught. [run ~locking ~tasks] makes the call;
   an exception fails its verdict. Returns the reports that came back. *)
let task_cases = [ (true, 4); (false, 2) ]

let task_verdicts o ~seed run =
  List.filter_map
    (fun (locking, tasks) ->
      let what = Printf.sprintf "tasks %s x%d" (if locking then "rio-prot" else "lock-off") tasks in
      Option.map
        (fun (r : Fuzzer.treport) ->
          verdict o ~seed what (if locking then r.Fuzzer.tr_violations = 0 else Fuzzer.tasks_caught r);
          (what, r))
        (guarded o ~seed 1 what (fun () -> run ~locking ~tasks)))
    task_cases

let matrix_verdicts =
  List.length Explorer.matrix_specs + List.length Explorer.fuzz_specs + List.length task_cases

(* One unit: the check matrix, the fuzz matrix one spec at a time (what
   [Fuzzer.run_matrix] does, with each spec's exception contained to its
   own verdict), and the two task verdicts. Each call's host time goes to
   [times], returned or raised. *)
let matrix_unit o ~times ~seed ~first =
  let cfg = matrix_cfg ~seed ~domains:matrix_domains in
  let timed_call what f =
    let t0 = now () in
    Fun.protect f ~finally:(fun () -> add_time times what (now () -. t0))
  in
  Option.iter
    (fun ex ->
      List.iter
        (fun (e : Explorer.matrix_entry) ->
          verdict o ~seed ("check " ^ e.Explorer.entry_report.Explorer.spec.Explorer.label) e.Explorer.ok)
        ex;
      if first then digest_line o "check matrix %s" (Json.to_string (Explorer.matrix_json ex)))
    (guarded o ~seed (List.length Explorer.matrix_specs) "Explorer.run_matrix" (fun () ->
         timed_call "check matrix" (fun () -> Explorer.run_matrix cfg)));
  List.iter
    (fun (spec : Explorer.spec) ->
      let what = "fuzz " ^ spec.Explorer.label in
      Option.iter
        (fun r ->
          verdict o ~seed what (report_ok r);
          if first then
            digest_line o "%s %s" what
              (Json.to_string (Fuzzer.matrix_json [ { Fuzzer.entry_report = r; ok = report_ok r } ])))
        (guarded o ~seed 1 what (fun () -> timed_call what (fun () -> Fuzzer.run ~spec ~shrink_limit cfg))))
    Explorer.fuzz_specs;
  List.iter
    (fun (what, r) -> if first then digest_line o "%s %s" what (Json.to_string (Fuzzer.treport_json r)))
    (task_verdicts o ~seed (fun ~locking ~tasks ->
         timed_call (Printf.sprintf "tasks %b %d" locking tasks) (fun () -> Fuzzer.run_tasks ~locking ~tasks cfg)))

(* A trial is a verdict. Verdicts per second is the 14 verdicts over the
   sum of each call's median time over the run's units; the median over
   units of different seeds also evens out how much shrinking a seed
   needs. *)
let verdict_matrix ~seed ~seconds o =
  fuzz_template_setup (unit_seed seed 0);
  let times = Hashtbl.create 16 in
  let units =
    timed_units ~seconds (fun i ->
        matrix_unit o ~times ~seed:(unit_seed seed i) ~first:(i = 0);
        matrix_verdicts)
  in
  ( ratio (float_of_int matrix_verdicts) (sum_of_medians times),
    [ metric "verdict_s" (median (List.map fst units)) "s" ] )
