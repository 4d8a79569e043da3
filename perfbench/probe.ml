(* The host's speed, measured apart from the program.

   On a shared host the same unit of work runs up to 50% slower for
   minutes at a time, while steal time stays at 1-3%: the slowdown is in
   the CPU's own speed, not in scheduling. A fixed piece of OCaml, short
   lists and small hash tables that all die young, slows down with the
   program: over ten 50 s runs whose raw rates spread 0.18 (fuzz-rio) and
   0.10 (table1), IQR over median, the rate times the run's median probe
   time spread 0.03 and 0.05. Its time follows the host and nothing else:
   it runs in a child process with a heap of its own, between units, so
   no change to the program can move it. *)

let work () =
  let t0 = Unix.gettimeofday () in
  let acc = ref 0. in
  for k = 1 to 60 do
    let l = List.init 1000 (fun i -> (i + k, float_of_int i)) in
    let h = Hashtbl.create 64 in
    List.iter (fun (i, f) -> Hashtbl.replace h (i land 255) f) l;
    acc := !acc +. Hashtbl.find h 7
  done;
  ignore (Sys.opaque_identity !acc);
  Unix.gettimeofday () -. t0

(* The child: one probe per byte read, its seconds written back, until
   the parent closes the pipe. *)
let serve () =
  try
    while true do
      ignore (input_char stdin);
      Printf.printf "%.9f\n%!" (work ())
    done
  with End_of_file -> ()

let child : (int * in_channel * out_channel) option ref = ref None

let stop () =
  Option.iter
    (fun (pid, ic, oc) ->
      child := None;
      close_out_noerr oc;
      close_in_noerr ic;
      ignore (Unix.waitpid [] pid : int * Unix.process_status))
    !child

(* [exe] is this program, which runs [serve] when given [flag]. The pipes
   are close-on-exec, so the child sees end of file as soon as the parent
   exits, however it exits. *)
let start ~exe ~flag =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let ans_r, ans_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; flag |] req_r ans_w Unix.stderr in
  Unix.close req_r;
  Unix.close ans_w;
  child := Some (pid, Unix.in_channel_of_descr ans_r, Unix.out_channel_of_descr req_w);
  at_exit stop

let samples = ref []

(* One probe, recorded. *)
let take () =
  match !child with
  | None -> ()
  | Some (_, ic, oc) ->
    output_char oc 'p';
    flush oc;
    samples := float_of_string (input_line ic) :: !samples

(* The probe's time on a quiet minute of the host the benchmark was
   written on (2 cores of an Intel Xeon, OCaml 5). *)
let reference_s = 0.003

(* How much slower than that reference the host ran: the run's median
   probe time over [reference_s], or 1 without samples. *)
let slowdown () =
  match !samples with [] -> 1. | xs -> Rio_util.Stats.median (Array.of_list xs) /. reference_s
