(** Workload scripts: flat operation streams executed against a file
    system.

    Operations are chunked the way real programs issue them (open, a
    sequence of 8 KB writes, close) because the write policies of Table 2
    key off exactly that structure — write-through-on-write pays per chunk,
    write-through-on-close per file. [Cpu] burns simulated computation time
    (the Andrew benchmark's compile phase). *)

type op =
  | Mkdir of string
  | Open_write of string  (** create/truncate and make current. *)
  | Open_read of string
  | Write_chunk of bytes
  | Read_chunk of int
  | Close
  | Fsync
  | Unlink of string
  | Rmdir of string
  | Stat of string
  | Rename of string * string
  | Read_whole of string
  | Cpu of int  (** µs of pure computation. *)

val chunk_size : int
(** 8192 — the stdio-ish buffer size scripts write in. *)

val write_file_ops : string -> seed:int -> len:int -> op list
(** open, chunked pattern writes, close. *)

type runner
(** Execution state for one script (current fd etc.). *)

val runner : op list -> runner

val finished : runner -> bool

val step : runner -> Rio_fs.Fs.t -> bool
(** Execute the next operation; [false] when the script is done. *)

val run_all : runner -> Rio_fs.Fs.t -> unit

val interleave : runner list -> Rio_fs.Fs.t -> unit
(** Round-robin the runners until all finish — Sdet's concurrent scripts,
    the reliability experiment's four Andrew instances. *)

val interleave_with : runner list -> Rio_fs.Fs.t -> every:int -> (unit -> unit) -> unit
(** Like {!interleave}, calling a callback every [every] operations (the
    crash campaign interposes kernel activity there). *)

val ops_total : runner -> int
val ops_done : runner -> int

(** {1 Workload characterization} *)

type stats = {
  operations : int;
  opens_write : int;
  opens_read : int;
  bytes_written : int;
  bytes_read_chunked : int;
  whole_file_reads : int;
  mkdirs : int;
  unlinks : int;
  rmdirs : int;
  stats_calls : int;
  renames : int;
  fsyncs : int;
  cpu_us : int;
}

val describe : op list -> stats
(** Static op-mix summary of a script — what makes Sdet metadata-heavy and
    Andrew CPU-heavy is visible right here. *)

val pp_stats : Format.formatter -> stats -> unit

(** {1 Random program generation}

    Higher-level, self-describing operations for the crash fuzzer: each
    carries everything needed to recompute its expected effect (pattern
    seeds and lengths), so a reference model of the file tree can be folded
    from the op list alone. The fuzzer owns execution (including Vista
    transactions); this module owns the shapes, the generator, and the
    model. *)

module Gen : sig
  type op =
    | Creat of { path : string; seed : int; len : int }
        (** Create a fresh file and write [len] pattern bytes in
            {!chunk_size} windows. *)
    | Append of { path : string; seed : int; len : int }
        (** Extend an existing file with a fresh pattern stream. *)
    | Overwrite of { path : string; offset : int; seed : int; len : int }
        (** Rewrite [\[offset, offset+len)] of an existing file in place. *)
    | Mkdir of string
    | Unlink of string
    | Rename of { src : string; dst : string }  (** [dst] is always fresh. *)
    | Vista_txn of { seed : int }
        (** Transactionally rewrite the whole Vista store with pattern
            [seed] (two writes, one commit). *)
    | Sync
        (** A [Fs.sync] durability barrier — everything written before it
            must survive even a cold (no-warm-reboot) recovery. *)

  type spec = {
    root : string;  (** Existing directory the program grows under. *)
    max_len : int;  (** Max bytes per creat/append/overwrite. *)
    max_dirs : int;  (** Directory-count cap (root included). *)
    vista : bool;  (** Whether to emit [Vista_txn] ops. *)
    sync : bool;  (** Whether to emit [Sync] ops (default spec: off, so
                      fixed-seed programs elsewhere stay stable). *)
  }

  val default_spec : root:string -> spec

  val generate : prng:Rio_util.Prng.t -> spec -> ops:int -> op list
  (** [ops] weighted-random operations over a growing tree, every one valid
      when executed in order starting from an empty [spec.root]. Pure in
      the prng state: equal streams yield equal programs. *)

  val generate_tasks :
    prng:Rio_util.Prng.t -> spec_of:(int -> spec) -> ops_per_task:int -> int -> op list list
  (** [generate_tasks ~prng ~spec_of ~ops_per_task n]: one program per
      task, task [i] over [spec_of i] (disjoint roots, so every task's
      expected state stays exact under any interleaving), each with
      [1..ops_per_task] ops. Pure in the prng state. *)

  val kind : op -> string
  (** The op's stable kind name ("creat", "append", "overwrite", "mkdir",
      "unlink", "rename", "vista-txn", "sync") — the operation axis of
      crash-space coverage maps. *)

  val describe : op -> string
  (** One human-readable line, e.g. ["creat /fuzz/f0 (1234 B, seed 0x5a)"]. *)

  (** The reference model: fold ops to the expected file tree. *)
  module Model : sig
    type t = {
      files : (string, bytes) Hashtbl.t;  (** path -> expected contents *)
      mutable dirs : string list;  (** in creation order, root first *)
      mutable vista : int option;  (** last committed transaction seed *)
    }

    val create : root:string -> t
    val copy : t -> t

    val apply : t -> op -> unit
    (** Raises [Not_found] when the op references a file the model does not
        have, or an overwrite reaches past the end of its file — how the
        shrinker detects an invalid sub-program. *)

    val after : root:string -> op list -> t

    val sorted_files : t -> (string * bytes) list
    (** Deterministic iteration order for checking. *)
  end
end
