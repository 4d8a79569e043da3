(* One flag byte per page; the mapping itself is the identity, so the
   byte is the whole entry. *)
type t = Bytes.t

let valid_bit = 1
let writable_bit = 2

let create ~pages = Bytes.make pages (Char.chr (valid_bit lor writable_bit))

let pages = Bytes.length

let flags t = t

let in_range t vpn = vpn >= 0 && vpn < Bytes.length t

let get t vpn = Char.code (Bytes.unsafe_get t vpn)

let update name t ~vpn bit on =
  if not (in_range t vpn) then invalid_arg (name ^ ": vpn out of range");
  let f = get t vpn in
  Bytes.unsafe_set t vpn (Char.unsafe_chr (if on then f lor bit else f land lnot bit))

let set_valid t ~vpn v = update "Page_table.set_valid" t ~vpn valid_bit v
let set_writable t ~vpn w = update "Page_table.set_writable" t ~vpn writable_bit w

let both = valid_bit lor writable_bit

let is_writable t ~vpn = in_range t vpn && get t vpn land both = both

let protected_count t =
  let n = ref 0 in
  for vpn = 0 to Bytes.length t - 1 do
    if get t vpn land both = valid_bit then incr n
  done;
  !n
