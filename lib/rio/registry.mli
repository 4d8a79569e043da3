(** The Rio registry (§2.2).

    "Instead of understanding and protecting all intermediate data
    structures, we keep and protect a separate area of memory ... that
    contains all information needed to find, identify, and restore files in
    memory. For each buffer in the file cache, the registry contains the
    physical memory address, file id (device number and inode number), file
    offset, and size."

    Entries are serialized into the registry region of simulated memory —
    they live there, not in OCaml, so kernel faults can corrupt them and
    Rio's protection must cover them. Each entry is 40 bytes per 8 KB page,
    matching the paper. The warm reboot parses entries back out of a raw
    memory image, defensively. *)

type kind = Meta_buffer | Data_buffer

type entry = {
  paddr : int;
      (** Where the buffer's current authoritative bytes live. During a
          shadow-paged metadata update this points at the shadow. *)
  home_paddr : int;  (** The buffer's permanent page (hash key). *)
  dev : int;
  ino : int;
  offset : int;  (** Byte offset of this buffer within the file. *)
  size : int;  (** Meaningful bytes in the buffer. *)
  blkno : int;  (** Disk block (data-area number, or sector base for metadata). *)
  kind : kind;
  changing : bool;  (** Mid-write: checksum cannot be trusted (§3.2). *)
  checksum : int;  (** CRC-32 of the buffer's first [size] bytes. *)
}

val entry_bytes : int
(** 40. *)

type t

val create : mem:Rio_mem.Phys_mem.t -> region:Rio_mem.Layout.region -> t
(** Manage entries within the registry region. Slots are zeroed. *)

val capacity : t -> int

val live_entries : t -> int

(** {1 Normal-operation updates}

    All of these serialize through to simulated memory immediately. *)

val register :
  t ->
  home_paddr:int ->
  dev:int ->
  ino:int ->
  offset:int ->
  size:int ->
  blkno:int ->
  kind:kind ->
  checksum:int ->
  unit
(** Add or update the entry for a page. Raises {!Rio_fs.Fs_types.Fs_error}
    if [dev] does not fit the slot's 16-bit field — truncating it would
    register the buffer under the wrong device. *)

val unregister : t -> home_paddr:int -> unit
(** Remove the entry for a page (no-op if absent). *)

val find : t -> home_paddr:int -> entry option

val set_changing : t -> home_paddr:int -> bool -> unit

val set_checksum : t -> home_paddr:int -> int -> unit

val set_closed : t -> home_paddr:int -> int -> unit
(** [set_closed t ~home_paddr c] records checksum [c] and clears the
    changing flag in one slot rewrite — the close-write commit. Final
    slot bytes are identical to [set_checksum] followed by
    [set_changing _ false]. *)

val redirect : t -> home_paddr:int -> paddr:int -> unit
(** Point the entry at a shadow page (or back) — the atomic flip of §2.3. *)

val iter : t -> (entry -> unit) -> unit
(** Live entries, in slot order. *)

(** {1 World-template rewind} *)

type checkpoint

val checkpoint : t -> checkpoint
(** Capture the host-side slot index and free list. The slot bytes live in
    simulated memory and rewind with the memory snapshot. *)

val restore : t -> checkpoint -> unit

(** {1 Warm-reboot parsing} *)

type parse_result = {
  entries : entry list;
  corrupt_slots : int;
      (** Slots that were neither free nor parseable — registry corruption. *)
}

val plausible : mem_bytes:int -> entry -> bool
(** Field-by-field validation of a parsed entry against the machine's
    geometry (page-aligned addresses in range, size within a page, [dev]
    within its 16-bit encoding, bounded ino/offset/blkno). Entries that
    fail are counted as corrupt slots by {!parse_image}. *)

val parse_image : image:bytes -> region:Rio_mem.Layout.region -> mem_bytes:int -> parse_result
(** Recover entries from a raw memory dump, validating every field against
    the machine's geometry with {!plausible}. *)

val parse_snapshot :
  mem:Rio_mem.Phys_mem.t ->
  snap:Rio_mem.Phys_mem.snapshot ->
  region:Rio_mem.Layout.region ->
  parse_result
(** {!parse_image} of memory as it was at [snap], without materializing
    the dump: a slot's free test is five 64-bit loads straight from the
    snapshot's pages, and only non-free slots (and those straddling two
    pages) are copied out and decoded. The fast warm reboot parses this
    way; the result equals [parse_image] of the full image. *)
