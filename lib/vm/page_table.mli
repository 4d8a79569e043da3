(** The kernel's page table.

    The simulated kernel runs identity-mapped: virtual page [n] maps to
    physical frame [n] when valid. What matters for Rio is not fancy address
    spaces but the per-page [valid] and [writable] bits — they are what turn
    wild stores into traps (paper §2.1). Since the mapping is the identity,
    an entry is nothing but those two bits: the table is one flag byte per
    page, so creating it is one allocation and checkpointing it one blit. *)

type t

val valid_bit : int
(** Bit 0 of a flag byte. *)

val writable_bit : int
(** Bit 1 of a flag byte. *)

val create : pages:int -> t
(** All entries valid and writable initially (a permissive monolithic
    kernel), identity-mapped. *)

val pages : t -> int

val flags : t -> Bytes.t
(** The backing flag bytes, indexed by vpn — exposed so the translation
    fast path and the MMU checkpoint read and blit them directly. Do not
    resize. *)

val set_valid : t -> vpn:int -> bool -> unit
val set_writable : t -> vpn:int -> bool -> unit
(** @raise Invalid_argument when [vpn] is outside the table. *)

val is_writable : t -> vpn:int -> bool
(** [false] also when invalid or out of range. *)

val protected_count : t -> int
(** Number of valid, non-writable entries (for tests and reports). *)
