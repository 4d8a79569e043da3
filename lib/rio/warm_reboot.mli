(** Warm reboot (§2.2): recover the file cache from physical memory after an
    operating-system crash.

    The paper's two-step design, step by step so the crash campaign can
    interleave kernel re-boot and remount at the right points:

    + {!capture}/{!dump_to_swap} — early in the reboot, before anything can
      scribble on memory, dump all of physical memory to the swap partition
      ("performed on a healthy, booting system and will always work").
    + {!parse_registry} — recover the registry from the dump.
    + {!restore_metadata} — write metadata buffers to their home disk
      addresses "so that the file system is intact before being checked for
      consistency by fsck".
    + (caller) run {!Rio_fs.Fsck}, warm-boot the kernel on the same memory,
      mount a fresh Rio file system.
    + {!restore_data} — the user-level sweep that rewrites UBC contents
      through normal calls.

    Checksums are verified along the way (§3.2): [changing] buffers cannot
    be judged; everything else must match or is reported as a detected
    corruption. Restoration proceeds regardless — detection is the
    experiment's job, and memTest has the final word. *)

type verify = {
  intact : int;
  mismatched : int;  (** Checksum caught a direct corruption. *)
  changing : int;  (** Mid-write at crash time: unverifiable. *)
}

type report = {
  registry_entries : int;
  corrupt_registry_slots : int;
  swap_dumped_bytes : int;  (** Bytes of the memory image written to swap. *)
  swap_truncated_bytes : int;
      (** Bytes that did not fit the swap partition (0 = complete dump).
          A partial dump is survivable — recovery proceeds from the
          in-memory image — but it must be visible, not silent. *)
  meta_restored : int;
  meta_skipped : int;  (** Implausible disk address — not written. *)
  data_restored : int;
  data_failed : int;  (** write_by_ino rejected it (inode gone after fsck). *)
  meta_verify : verify;
  data_verify : verify;
  fsck : Rio_fs.Fsck.report;
  duration_us : int;
}

val capture : Rio_mem.Phys_mem.t -> bytes
(** Snapshot all of physical memory as a flat image. The step-by-step
    entry points below consume such an image; {!perform} itself uses a
    copy-on-write {!Rio_mem.Phys_mem.snapshot} instead when
    {!Rio_util.Fastpath} is on, which reads byte-identically but costs
    O(pages dirtied) rather than O(memory). *)

val dump_to_swap : disk:Rio_disk.Disk.t -> image:bytes -> int * int
(** Write the image to the swap partition (timed, synchronous). Returns
    [(dumped, truncated)] byte counts: [truncated > 0] means the image did
    not fit the swap partition and only a prefix was written. Best effort:
    skipped entirely — [(0, length image)] — if the superblock is
    unreadable (the volume is lost anyway). *)

val dump_snapshot_to_swap :
  disk:Rio_disk.Disk.t -> mem:Rio_mem.Phys_mem.t -> snap:Rio_mem.Phys_mem.snapshot -> int * int
(** {!dump_to_swap} of memory as it was at [snap], as {!perform}'s fast
    path dumps it: the same 128 KB requests, but only the pages the
    snapshot cannot prove all-zero are copied, the rest committed as zeros
    by {!Rio_disk.Disk.write_sync_sparse}. Swap contents, disk statistics
    and simulated time equal those of dumping the full image. *)

val parse_registry :
  image:bytes -> layout:Rio_mem.Layout.t -> Registry.parse_result

val verify_entries : image:bytes -> Registry.entry list -> verify

val restore_metadata :
  disk:Rio_disk.Disk.t -> image:bytes -> Registry.entry list -> int * int
(** Write every [Meta_buffer] entry's page from the image to its disk
    sectors (synchronous). Returns [(restored, skipped)]. *)

val restore_data :
  fs:Rio_fs.Fs.t -> image:bytes -> Registry.entry list -> int * int
(** Replay every [Data_buffer] entry through {!Rio_fs.Fs.write_by_ino}.
    Returns [(restored, failed)]. *)

val perform :
  mem:Rio_mem.Phys_mem.t ->
  disk:Rio_disk.Disk.t ->
  layout:Rio_mem.Layout.t ->
  engine:Rio_sim.Engine.t ->
  reboot:(unit -> Rio_fs.Fs.t) ->
  report
(** The full sequence. [reboot] is called after the metadata restore and
    fsck; it must warm-boot the kernel {e on the same physical memory} and
    return a freshly mounted Rio file system.

    When {!Rio_util.Fastpath.on} (the default), the crash image is a
    copy-on-write snapshot rather than a full dump, the swap dump copies
    only the pages not provably all-zero, and the registry is parsed
    straight from the snapshot's pages —
    every simulated disk write (and hence simulated time, disk state and
    the report) is identical to the reference path. *)
