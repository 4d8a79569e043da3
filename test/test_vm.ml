(* Tests for the VM layer: page table, TLB model, MMU with KSEG
   semantics and write protection — the heart of Rio's §2.1. *)

module Page_table = Rio_vm.Page_table
module Tlb = Rio_vm.Tlb
module Mmu = Rio_vm.Mmu
module Phys_mem = Rio_mem.Phys_mem

let check = Alcotest.check

let fresh_mmu () = Mmu.create ~mem_pages:64 ~tlb_entries:16 ()

(* ---------------- page table ---------------- *)

let test_page_table_defaults () =
  let pt = Page_table.create ~pages:8 in
  check Alcotest.int "pages" 8 (Page_table.pages pt);
  check Alcotest.bool "writable by default" true (Page_table.is_writable pt ~vpn:3);
  check Alcotest.int "nothing protected" 0 (Page_table.protected_count pt)

let test_page_table_protection () =
  let pt = Page_table.create ~pages:8 in
  Page_table.set_writable pt ~vpn:2 false;
  check Alcotest.bool "read-only" false (Page_table.is_writable pt ~vpn:2);
  check Alcotest.int "one protected" 1 (Page_table.protected_count pt);
  Page_table.set_valid pt ~vpn:3 false;
  check Alcotest.bool "invalid is not writable" false (Page_table.is_writable pt ~vpn:3)

let test_page_table_out_of_range () =
  let pt = Page_table.create ~pages:4 in
  check Alcotest.bool "beyond the table is not writable" false (Page_table.is_writable pt ~vpn:99);
  check Alcotest.bool "negative vpn is not writable" false (Page_table.is_writable pt ~vpn:(-1));
  Alcotest.check_raises "set beyond the table"
    (Invalid_argument "Page_table.set_writable: vpn out of range") (fun () ->
      Page_table.set_writable pt ~vpn:4 false);
  Alcotest.check_raises "set a negative vpn"
    (Invalid_argument "Page_table.set_valid: vpn out of range") (fun () ->
      Page_table.set_valid pt ~vpn:(-1) true)

(* The flag byte is the whole entry: bit 0 valid, bit 1 writable, each
   settable on its own. *)
let test_page_table_flag_bits () =
  let pt = Page_table.create ~pages:6 in
  let flag vpn = Char.code (Bytes.get (Page_table.flags pt) vpn) in
  check Alcotest.int "fresh entry valid+writable"
    (Page_table.valid_bit lor Page_table.writable_bit) (flag 0);
  Page_table.set_writable pt ~vpn:1 false;
  check Alcotest.int "read-only keeps valid" Page_table.valid_bit (flag 1);
  Page_table.set_valid pt ~vpn:2 false;
  check Alcotest.int "invalid keeps writable" Page_table.writable_bit (flag 2);
  check Alcotest.bool "invalid+writable is not writable" false (Page_table.is_writable pt ~vpn:2);
  Page_table.set_valid pt ~vpn:3 false;
  Page_table.set_writable pt ~vpn:3 false;
  check Alcotest.int "both cleared" 0 (flag 3);
  (* Only valid read-only pages count as protected. *)
  check Alcotest.int "protected count" 1 (Page_table.protected_count pt);
  Page_table.set_writable pt ~vpn:4 false;
  Page_table.set_writable pt ~vpn:5 false;
  check Alcotest.int "three protected" 3 (Page_table.protected_count pt);
  Page_table.set_writable pt ~vpn:1 true;
  Page_table.set_valid pt ~vpn:2 true;
  check Alcotest.bool "re-opened" true (Page_table.is_writable pt ~vpn:1);
  check Alcotest.bool "re-validated" true (Page_table.is_writable pt ~vpn:2);
  check Alcotest.int "two protected" 2 (Page_table.protected_count pt)

(* ---------------- tlb ---------------- *)

let test_tlb_hit_miss () =
  let tlb = Tlb.create ~entries:4 in
  Tlb.access tlb ~vpn:1;
  Tlb.access tlb ~vpn:1;
  check Alcotest.int "one miss" 1 (Tlb.misses tlb);
  check Alcotest.int "one hit" 1 (Tlb.hits tlb)

let test_tlb_conflict () =
  let tlb = Tlb.create ~entries:4 in
  Tlb.access tlb ~vpn:1;
  Tlb.access tlb ~vpn:5 (* same slot: 5 mod 4 = 1 *);
  Tlb.access tlb ~vpn:1;
  check Alcotest.int "conflict evicts" 3 (Tlb.misses tlb)

let test_tlb_shootdown () =
  let tlb = Tlb.create ~entries:4 in
  Tlb.access tlb ~vpn:2;
  Tlb.shootdown tlb ~vpn:2;
  check Alcotest.int "shootdown counted" 1 (Tlb.shootdowns tlb);
  Tlb.access tlb ~vpn:2;
  check Alcotest.int "re-fill is a miss" 2 (Tlb.misses tlb)

let test_tlb_bad_size () =
  Alcotest.check_raises "power of two required"
    (Invalid_argument "Tlb.create: entries must be a positive power of two") (fun () ->
      ignore (Tlb.create ~entries:3))

(* ---------------- mmu ---------------- *)

let paddr_of = function
  | Mmu.Ok p -> p
  | Mmu.Fault f -> Alcotest.failf "unexpected fault: %a" Mmu.pp_fault f

let test_mapped_identity () =
  let mmu = fresh_mmu () in
  let va = (3 * Phys_mem.page_size) + 100 in
  check Alcotest.int "identity map" va (paddr_of (Mmu.translate mmu ~vaddr:va ~access:Mmu.Read))

let test_unmapped_fault () =
  let mmu = fresh_mmu () in
  let va = 1000 * Phys_mem.page_size in
  (match Mmu.translate mmu ~vaddr:va ~access:Mmu.Read with
  | Mmu.Fault (Mmu.Unmapped a) -> check Alcotest.int "fault address" va a
  | Mmu.Fault (Mmu.Write_protected _) | Mmu.Ok _ -> Alcotest.fail "expected unmapped fault");
  check Alcotest.int "counted" 1 (Mmu.unmapped_faults mmu)

let test_invalid_page_fault () =
  let mmu = fresh_mmu () in
  Page_table.set_valid (Mmu.page_table mmu) ~vpn:2 false;
  match Mmu.translate mmu ~vaddr:(2 * Phys_mem.page_size) ~access:Mmu.Read with
  | Mmu.Fault (Mmu.Unmapped _) -> ()
  | Mmu.Fault (Mmu.Write_protected _) | Mmu.Ok _ -> Alcotest.fail "expected unmapped fault"

let test_write_protection () =
  let mmu = fresh_mmu () in
  Page_table.set_writable (Mmu.page_table mmu) ~vpn:5 false;
  let va = 5 * Phys_mem.page_size in
  check Alcotest.int "reads still fine" va (paddr_of (Mmu.translate mmu ~vaddr:va ~access:Mmu.Read));
  (match Mmu.translate mmu ~vaddr:va ~access:Mmu.Write with
  | Mmu.Fault (Mmu.Write_protected a) -> check Alcotest.int "trap address" va a
  | Mmu.Fault (Mmu.Unmapped _) | Mmu.Ok _ -> Alcotest.fail "expected protection trap");
  check Alcotest.int "counted" 1 (Mmu.protection_faults mmu)

let test_kseg_bypass () =
  (* The danger the paper describes: with the ABOX bit clear, KSEG stores
     ignore page protection entirely. *)
  let mmu = fresh_mmu () in
  Page_table.set_writable (Mmu.page_table mmu) ~vpn:5 false;
  let pa = 5 * Phys_mem.page_size in
  match Mmu.translate mmu ~vaddr:(Mmu.kseg_addr pa) ~access:Mmu.Write with
  | Mmu.Ok p -> check Alcotest.int "bypasses protection" pa p
  | Mmu.Fault _ -> Alcotest.fail "KSEG must bypass when not mapped through TLB"

let test_kseg_through_tlb () =
  (* Rio's fix: the ABOX bit makes KSEG respect the PTEs. *)
  let mmu = fresh_mmu () in
  Mmu.set_kseg_through_tlb mmu true;
  Page_table.set_writable (Mmu.page_table mmu) ~vpn:5 false;
  let pa = 5 * Phys_mem.page_size in
  (match Mmu.translate mmu ~vaddr:(Mmu.kseg_addr pa) ~access:Mmu.Write with
  | Mmu.Fault (Mmu.Write_protected _) -> ()
  | Mmu.Fault (Mmu.Unmapped _) | Mmu.Ok _ -> Alcotest.fail "expected protection trap");
  (* Reads still work. *)
  match Mmu.translate mmu ~vaddr:(Mmu.kseg_addr pa) ~access:Mmu.Read with
  | Mmu.Ok p -> check Alcotest.int "read maps" pa p
  | Mmu.Fault _ -> Alcotest.fail "reads must succeed"

let test_kseg_out_of_range () =
  let mmu = fresh_mmu () in
  match Mmu.translate mmu ~vaddr:(Mmu.kseg_addr (10_000 * Phys_mem.page_size)) ~access:Mmu.Read with
  | Mmu.Fault (Mmu.Unmapped _) -> ()
  | Mmu.Fault (Mmu.Write_protected _) | Mmu.Ok _ -> Alcotest.fail "expected unmapped"

let test_negative_vaddr () =
  let mmu = fresh_mmu () in
  match Mmu.translate mmu ~vaddr:(-8) ~access:Mmu.Read with
  | Mmu.Fault (Mmu.Unmapped _) -> ()
  | Mmu.Fault (Mmu.Write_protected _) | Mmu.Ok _ -> Alcotest.fail "expected unmapped"

let test_is_kseg () =
  check Alcotest.bool "kseg addr" true (Mmu.is_kseg (Mmu.kseg_addr 0));
  check Alcotest.bool "mapped addr" false (Mmu.is_kseg 4096)

let test_reset_stats () =
  let mmu = fresh_mmu () in
  ignore (Mmu.translate mmu ~vaddr:(1000 * Phys_mem.page_size) ~access:Mmu.Read);
  Mmu.reset_stats mmu;
  check Alcotest.int "cleared" 0 (Mmu.unmapped_faults mmu)

(* A checkpoint taken with pages protected and the ABOX bit on restores
   the same protection, TLB and counters after they all change. *)
let test_mmu_checkpoint_roundtrip () =
  let mmu = fresh_mmu () in
  let pt = Mmu.page_table mmu in
  Mmu.set_kseg_through_tlb mmu true;
  List.iter (fun vpn -> Page_table.set_writable pt ~vpn false) [ 3; 5; 40 ];
  Page_table.set_valid pt ~vpn:7 false;
  ignore (Mmu.translate mmu ~vaddr:(5 * Phys_mem.page_size) ~access:Mmu.Write);
  ignore (Mmu.translate mmu ~vaddr:(1 * Phys_mem.page_size) ~access:Mmu.Read);
  let flags = Bytes.copy (Page_table.flags pt) in
  let misses = Tlb.misses (Mmu.tlb mmu) and hits = Tlb.hits (Mmu.tlb mmu) in
  let ck = Mmu.checkpoint mmu in
  (* Scramble everything the checkpoint covers. *)
  Mmu.set_kseg_through_tlb mmu false;
  Page_table.set_writable pt ~vpn:3 true;
  Page_table.set_writable pt ~vpn:9 false;
  Page_table.set_valid pt ~vpn:7 true;
  ignore (Mmu.translate mmu ~vaddr:(9 * Phys_mem.page_size) ~access:Mmu.Write);
  ignore (Mmu.translate mmu ~vaddr:(2000 * Phys_mem.page_size) ~access:Mmu.Read);
  Mmu.restore mmu ck;
  check Alcotest.bool "flag bytes restored" true (Bytes.equal flags (Page_table.flags pt));
  check Alcotest.int "protected count restored" 3 (Page_table.protected_count pt);
  check Alcotest.bool "ABOX bit restored" true (Mmu.kseg_through_tlb mmu);
  check Alcotest.int "protection faults restored" 1 (Mmu.protection_faults mmu);
  check Alcotest.int "unmapped faults restored" 0 (Mmu.unmapped_faults mmu);
  check Alcotest.int "tlb misses restored" misses (Tlb.misses (Mmu.tlb mmu));
  check Alcotest.int "tlb hits restored" hits (Tlb.hits (Mmu.tlb mmu));
  (* The restored table still traps: KSEG store to a protected page. *)
  (match Mmu.translate mmu ~vaddr:(Mmu.kseg_addr (40 * Phys_mem.page_size)) ~access:Mmu.Write with
  | Mmu.Fault (Mmu.Write_protected _) -> ()
  | Mmu.Fault (Mmu.Unmapped _) | Mmu.Ok _ -> Alcotest.fail "expected protection trap");
  match Mmu.translate mmu ~vaddr:(7 * Phys_mem.page_size) ~access:Mmu.Read with
  | Mmu.Fault (Mmu.Unmapped _) -> ()
  | Mmu.Fault (Mmu.Write_protected _) | Mmu.Ok _ -> Alcotest.fail "expected unmapped fault"

let () =
  Alcotest.run "rio_vm"
    [
      ( "page_table",
        [
          Alcotest.test_case "defaults" `Quick test_page_table_defaults;
          Alcotest.test_case "protection bits" `Quick test_page_table_protection;
          Alcotest.test_case "out of range" `Quick test_page_table_out_of_range;
          Alcotest.test_case "flag bits" `Quick test_page_table_flag_bits;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "conflict" `Quick test_tlb_conflict;
          Alcotest.test_case "shootdown" `Quick test_tlb_shootdown;
          Alcotest.test_case "bad size" `Quick test_tlb_bad_size;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "identity mapping" `Quick test_mapped_identity;
          Alcotest.test_case "unmapped fault" `Quick test_unmapped_fault;
          Alcotest.test_case "invalid page" `Quick test_invalid_page_fault;
          Alcotest.test_case "write protection" `Quick test_write_protection;
          Alcotest.test_case "KSEG bypasses protection (ABOX off)" `Quick test_kseg_bypass;
          Alcotest.test_case "KSEG through TLB (ABOX on)" `Quick test_kseg_through_tlb;
          Alcotest.test_case "KSEG out of range" `Quick test_kseg_out_of_range;
          Alcotest.test_case "negative vaddr" `Quick test_negative_vaddr;
          Alcotest.test_case "is_kseg" `Quick test_is_kseg;
          Alcotest.test_case "reset stats" `Quick test_reset_stats;
          Alcotest.test_case "checkpoint/restore with pages protected" `Quick
            test_mmu_checkpoint_roundtrip;
        ] );
    ]
