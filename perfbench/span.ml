(* Host-time spans the benchmark records around its own calls into each
   layer's public functions. A span has a name, start, end, the span that
   caused it (its parent) and the id of the trial its siblings share.
   Spans stay in memory and are written once, when the run ends.

   Each span also carries the words its call allocated (minor + major -
   promoted, from [Gc.counters]), so allocation can be charged per span
   family the same way time is. *)

type span = {
  name : string;
  start : float;  (** Host seconds ([Unix.gettimeofday]). *)
  stop : float;
  parent : int;  (** Index of the causing span; -1 for a root. *)
  trial : int;
  alloc_words : float;
}

type t = {
  mutable spans : span array;
  mutable n : int;
  mutable stack : int list;  (** Open spans, innermost first. *)
  mutable trial : int;
}

let dummy = { name = ""; start = 0.; stop = 0.; parent = -1; trial = -1; alloc_words = 0. }
let create () = { spans = Array.make 4096 dummy; n = 0; stack = []; trial = -1 }
let set_trial t id = t.trial <- id

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let record t name f =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (2 * t.n) dummy in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  let id = t.n in
  t.n <- t.n + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let a0 = allocated () in
  let start = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      let alloc_words = allocated () -. a0 in
      t.spans.(id) <- { name; start; stop; parent; trial = t.trial; alloc_words };
      t.stack <- List.tl t.stack)

let dur s = s.stop -. s.start

(* Self time: a span's duration minus the time its children cover.
   Children of one span run one after another on one domain, so the time
   they cover is the sum of their durations. *)
let self_times t =
  let child = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. dur s
  done;
  Array.init t.n (fun i -> (t.spans.(i), dur t.spans.(i) -. child.(i), child.(i)))

(* One line per span, tab-separated: name, start and end in microseconds
   from the first span, parent index, trial id, allocated words. *)
let write t file =
  let oc = open_out file in
  let t0 = if t.n > 0 then t.spans.(0).start else 0. in
  let us x = Printf.sprintf "%.1f" ((x -. t0) *. 1e6) in
  output_string oc "# name\tstart_us\tend_us\tparent\ttrial\talloc_words\n";
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc "%s\t%s\t%s\t%d\t%d\t%.0f\n" s.name (us s.start) (us s.stop) s.parent
      s.trial s.alloc_words
  done;
  close_out oc
