(* Bookkeeping shared by the end-to-end and the traced runs: operation
   outcomes, metrics, unit loops, set-up timing, memory and allocation. *)

module Stats = Rio_util.Stats

let now = Unix.gettimeofday

(* Operations as the workloads define them: a fuzz trial, a completed
   Table 1 crash test, a Table 2 cell, a matrix verdict. An operation
   fails on an exception or a wrong answer (a violation on a safe
   configuration, a verdict against [expect_safe], a non-finite result);
   failures are counted, never hidden. [correct] turns false only when the
   measurement itself cannot be trusted: a traced rebuild that disagrees
   with its library entry, a --reference run that disagrees with the fast
   one, or results that break the campaign's own invariants. *)
type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  mutable replica_ok : bool;
  mutable failures : string list;
  digest : Buffer.t;
}

(* Every failure goes to stderr as it happens; the first 20 also go to
   the result file. *)
let note o msg =
  prerr_endline ("bench: " ^ msg);
  if List.length o.failures < 20 then o.failures <- msg :: o.failures

let fail o msg =
  o.failed <- o.failed + 1;
  note o msg

let wrong o msg =
  o.correct <- false;
  note o msg

(* A traced rebuild that disagrees with its library entry: the layer
   numbers would describe another program, so none are published. *)
let mismatch o msg =
  o.replica_ok <- false;
  wrong o ("replica: " ^ msg)

let digest_line o fmt = Printf.ksprintf (fun s -> Buffer.add_string o.digest (s ^ "\n")) fmt

type metric = { name : string; value : float; unit_ : string }

let metric name value unit_ = { name; value; unit_ }
let median xs = match xs with [] -> 0. | _ -> Stats.median (Array.of_list xs)
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b
let result f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* Unit [i] of a run: inputs differ per unit, and every unit is a pure
   function of (--seed, i). *)
let unit_seed seed i = (seed * 1000) + i

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

(* The process's peak RSS once the run's first [warm_units] are done. By
   then the fuzzer's per-domain template cache is full (four templates of
   ~45 MB; over six seeds the figure ranged 12% after one unit, one
   seed's template, and 5% after ten), and Table 1 and 2 have been
   through every cell once. It depends only on the seed: the units it
   covers are the same however fast the host runs. *)
let warm_rss = ref 0.

(* Set-up is timed several times and reported as the median: five times
   after the first [warm_units] and three more after every later unit, so
   the median samples the whole run rather than the host's mood in one
   moment. The repetitions come after [warm_rss] is read, so the set-up
   calls' leftovers (each builds a template the fuzzer caches) do not
   count in it. [build k] is the [k]-th repetition. No explicit
   collection anywhere: a forced major cycle changes how the runtime paces
   the rest of the run (a Table 1 sweep peaks at 5x the memory after one). *)
let setup_samples = ref []
let setup_rep = ref ignore

let time_setup build release =
  let k = ref 0 in
  setup_rep :=
    fun () ->
      let t0 = now () in
      let x = build !k in
      setup_samples := (now () -. t0) :: !setup_samples;
      incr k;
      release x

let setup_s () = median !setup_samples

(* Every measured unit of the run: host seconds, trials, and the process's
   user and system CPU seconds. Written to the result file so a run's
   noise can be read after the fact. *)
let unit_log : (float * int * float * float) list ref = ref []

(* The units a run always does: the first pass over the cells (Table 1
   and 2), and at least ten. *)
let warm_units pass = max pass 10

(* Run passes of [pass] units until [seconds] have passed and the first
   [warm_units] are done; a run stops only between passes. [f i] runs
   unit [i] and returns the trials it completed; the result is (host
   seconds, trials) per unit. The host's speed is probed after every
   unit. [warm_rss] is read, and set-up timed, once the first
   [warm_units] are done. *)
let timed_units ?(pass = 1) ~seconds f =
  let t_start = now () and warm = warm_units pass in
  let rec go i acc =
    if i >= warm && i mod pass = 0 && now () -. t_start >= seconds then List.rev acc
    else begin
      let c0 = Unix.times () in
      let t0 = now () in
      let n = f i in
      let dt = now () -. t0 in
      let c1 = Unix.times () in
      unit_log :=
        (dt, n, c1.Unix.tms_utime -. c0.Unix.tms_utime, c1.Unix.tms_stime -. c0.Unix.tms_stime)
        :: !unit_log;
      Probe.take ();
      if i = warm - 1 then warm_rss := peak_rss_mb ();
      for _ = 1 to if i = warm - 1 then 5 else if i < warm then 0 else 3 do
        !setup_rep ()
      done;
      go (i + 1) ((dt, n) :: acc)
    end
  in
  go 0 []

(* Trials per host second as the median of the units' rates: the host's
   speed comes and goes for seconds at a time ({!Probe}), which moves a
   run's fastest units as much as its slowest, and its middle least. *)
let trials_per_s units =
  median (List.filter_map (fun (dt, n) -> if n > 0 then Some (float_of_int n /. dt) else None) units)

(* Host times per kind of unit (a cell, a call) over a run, and the sum
   of each kind's median: the time of a typical pass, however many passes
   the run held. Trials per host second is a pass's trials over that sum. *)
let add_time times key dt = Hashtbl.replace times key (dt :: Option.value (Hashtbl.find_opt times key) ~default:[])
let sum_of_medians times = Hashtbl.fold (fun _ ts acc -> acc +. median ts) times 0.

(* Allocation and collections over [f], from [Gc.quick_stat] deltas. *)
type gc_delta = { words : float; direct_major : float; majors : int }

let gc_zero = { words = 0.; direct_major = 0.; majors = 0 }

let gc_add a b =
  { words = a.words +. b.words; direct_major = a.direct_major +. b.direct_major; majors = a.majors + b.majors }

let with_gc f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  let minor = s1.Gc.minor_words -. s0.Gc.minor_words in
  let promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words in
  let major = s1.Gc.major_words -. s0.Gc.major_words in
  ( r,
    {
      words = minor +. major -. promoted;
      direct_major = major -. promoted;
      majors = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.
