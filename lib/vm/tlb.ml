type t = {
  slots : int array; (* cached vpn per slot; -1 = empty *)
  mask : int;
  mutable hits : int;
  mutable misses : int;
  mutable shootdowns : int;
}

let create ~entries =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Tlb.create: entries must be a positive power of two";
  { slots = Array.make entries (-1); mask = entries - 1; hits = 0; misses = 0; shootdowns = 0 }

let access t ~vpn =
  let i = vpn land t.mask in
  if Array.unsafe_get t.slots i = vpn then t.hits <- t.hits + 1
  else begin
    t.misses <- t.misses + 1;
    Array.unsafe_set t.slots i vpn
  end

let shootdown t ~vpn =
  let i = vpn land t.mask in
  if t.slots.(i) = vpn then begin
    t.slots.(i) <- -1;
    t.shootdowns <- t.shootdowns + 1
  end

let flush t = Array.fill t.slots 0 (Array.length t.slots) (-1)

let hits t = t.hits
let misses t = t.misses
let shootdowns t = t.shootdowns

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.shootdowns <- 0

(* ---- world-template rewind ---- *)

type checkpoint = {
  ck_vpns : int array;
  ck_hits : int;
  ck_misses : int;
  ck_shootdowns : int;
}

let checkpoint t =
  { ck_vpns = Array.copy t.slots;
    ck_hits = t.hits; ck_misses = t.misses; ck_shootdowns = t.shootdowns }

let restore t ck =
  Array.blit ck.ck_vpns 0 t.slots 0 (Array.length t.slots);
  t.hits <- ck.ck_hits;
  t.misses <- ck.ck_misses;
  t.shootdowns <- ck.ck_shootdowns
