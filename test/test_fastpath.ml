(* Tests for the fast data path: copy-on-write snapshots, the dirty-page
   bitmap, decoded-dispatch invalidation on self-modifying text,
   incremental checksums, and fast/reference equivalence of both the bare
   interpreter and a scaled-down campaign at -j1/-j4. *)

module Isa = Rio_cpu.Isa
module Machine = Rio_cpu.Machine
module Mmu = Rio_vm.Mmu
module Phys_mem = Rio_mem.Phys_mem
module Checksum = Rio_util.Checksum
module Pattern = Rio_util.Pattern
module Fastpath = Rio_util.Fastpath
module Reliability = Rio_harness.Reliability
module Run = Rio_harness.Run
module Campaign = Rio_fault.Campaign
module Fault_type = Rio_fault.Fault_type

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let with_fastpath b f =
  Fastpath.set b;
  Fun.protect ~finally:(fun () -> Fastpath.set true) f

(* ---------------- copy-on-write snapshots ---------------- *)

let random_mutation rng mem =
  let size = Phys_mem.size mem in
  match Random.State.int rng 6 with
  | 0 -> Phys_mem.write_u8 mem (Random.State.int rng size) (Random.State.int rng 256)
  | 1 -> Phys_mem.write_u32 mem (Random.State.int rng (size - 4)) (Random.State.int rng 0x3FFF_FFFF)
  | 2 -> Phys_mem.write_u64 mem (Random.State.int rng (size - 8)) (Random.State.full_int rng max_int)
  | 3 ->
    let len = 1 + Random.State.int rng 300 in
    let addr = Random.State.int rng (size - len) in
    Phys_mem.fill mem addr ~len (Char.chr (Random.State.int rng 256))
  | 4 ->
    (* Long enough to span page boundaries. *)
    let len = 1 + Random.State.int rng (Phys_mem.page_size + 1000) in
    let src = Random.State.int rng (size - len) in
    let dst = Random.State.int rng (size - len) in
    Phys_mem.blit_within mem ~src ~dst ~len
  | _ -> Phys_mem.flip_bit mem (Random.State.int rng size) ~bit:(Random.State.int rng 8)

let test_snapshot_equals_dump () =
  let rng = Random.State.make [| 42 |] in
  let mem = Phys_mem.create ~bytes_total:(16 * Phys_mem.page_size) in
  for _ = 1 to 50 do
    random_mutation rng mem
  done;
  let before = Phys_mem.dump mem in
  let snap = Phys_mem.snapshot mem in
  for _ = 1 to 200 do
    random_mutation rng mem
  done;
  let through = Phys_mem.snap_blit_out mem snap 0 ~len:(Phys_mem.size mem) in
  check Alcotest.bool "snapshot view = dump taken at snapshot time" true
    (Bytes.equal through before);
  check Alcotest.int "snapshot checksum = dump crc"
    (Checksum.crc32 before ~pos:0 ~len:(Bytes.length before))
    (Phys_mem.snap_checksum_range mem snap 0 ~len:(Phys_mem.size mem));
  check Alcotest.bool "COW saved only touched pages" true
    (Phys_mem.snap_saved_pages snap <= Phys_mem.page_count mem);
  Phys_mem.restore mem snap;
  check Alcotest.bool "restore returns memory to snapshot state" true
    (Bytes.equal (Phys_mem.dump mem) before)

let test_overlapping_snapshots () =
  let rng = Random.State.make [| 7; 9 |] in
  let mem = Phys_mem.create ~bytes_total:(8 * Phys_mem.page_size) in
  for _ = 1 to 30 do
    random_mutation rng mem
  done;
  let snap1 = Phys_mem.snapshot mem in
  let at1 = Phys_mem.dump mem in
  for _ = 1 to 60 do
    random_mutation rng mem
  done;
  let snap2 = Phys_mem.snapshot mem in
  let at2 = Phys_mem.dump mem in
  for _ = 1 to 60 do
    random_mutation rng mem
  done;
  Phys_mem.restore mem snap2;
  check Alcotest.bool "inner restore" true (Bytes.equal (Phys_mem.dump mem) at2);
  Phys_mem.restore mem snap1;
  check Alcotest.bool "outer restore" true (Bytes.equal (Phys_mem.dump mem) at1)

(* The template loop: one kept snapshot rewound by restore_keep round
   after round, with a crash capture taken and consumed inside each round.
   Every page first written after a rewind (or after the capture) must be
   saved again, even one already saved in an earlier round. *)
let test_restore_keep_rounds () =
  let rng = Random.State.make [| 11 |] in
  let mem = Phys_mem.create ~bytes_total:(8 * Phys_mem.page_size) in
  for _ = 1 to 30 do
    random_mutation rng mem
  done;
  let template = Phys_mem.snapshot mem in
  let at_template = Phys_mem.dump mem in
  for round = 1 to 5 do
    for _ = 1 to 20 do
      random_mutation rng mem
    done;
    let capture = Phys_mem.snapshot mem in
    let at_capture = Phys_mem.dump mem in
    for _ = 1 to 20 do
      random_mutation rng mem
    done;
    Phys_mem.restore mem capture;
    check Alcotest.bool (Printf.sprintf "round %d: capture restored" round) true
      (Bytes.equal (Phys_mem.dump mem) at_capture);
    for _ = 1 to 20 do
      random_mutation rng mem
    done;
    ignore (Phys_mem.restore_keep mem template : int);
    check Alcotest.bool (Printf.sprintf "round %d: template restored" round) true
      (Bytes.equal (Phys_mem.dump mem) at_template)
  done

(* ---------------- dirty bitmap ---------------- *)

let test_dirty_bitmap () =
  let psz = Phys_mem.page_size in
  let mem = Phys_mem.create ~bytes_total:(8 * psz) in
  check Alcotest.int "fresh memory clean" 0 (Phys_mem.dirty_count mem);
  Phys_mem.write_u8 mem ((2 * psz) + 5) 7;
  check Alcotest.bool "page 2 dirty" true (Phys_mem.is_dirty mem 2);
  check Alcotest.bool "page 1 clean" false (Phys_mem.is_dirty mem 1);
  check Alcotest.int "one dirty page" 1 (Phys_mem.dirty_count mem);
  (* A blit whose destination straddles the page 4/5 boundary. *)
  Phys_mem.blit_within mem ~src:0 ~dst:((5 * psz) - 4) ~len:8;
  check Alcotest.bool "page 4 dirty after straddling blit" true (Phys_mem.is_dirty mem 4);
  check Alcotest.bool "page 5 dirty after straddling blit" true (Phys_mem.is_dirty mem 5);
  Phys_mem.flip_bit mem (6 * psz) ~bit:3;
  check Alcotest.bool "page 6 dirty after bit flip" true (Phys_mem.is_dirty mem 6);
  check Alcotest.bool "page 3 still clean" false (Phys_mem.is_dirty mem 3);
  let seen = ref [] in
  Phys_mem.iter_dirty mem (fun p -> seen := p :: !seen);
  check (Alcotest.list Alcotest.int) "iter_dirty ascending" [ 2; 4; 5; 6 ] (List.rev !seen);
  let v3 = Phys_mem.page_version mem 3 in
  Phys_mem.power_cycle mem;
  check Alcotest.int "power cycle dirties every page" (Phys_mem.page_count mem)
    (Phys_mem.dirty_count mem);
  check Alcotest.bool "power cycle bumps versions of clean pages" true
    (Phys_mem.page_version mem 3 > v3)

(* ---------------- decode-cache invalidation ---------------- *)

(* Patch an instruction the machine has already executed (and therefore
   decoded and cached), then execute it again. The pre-decoded dispatch
   must notice the page-version bump and re-decode.

   Layout (word / byte):
     0/0   Ori  r2, r0, 32        ; r2 = address of the target slot
     1/4   Lui  r1, hi(new)       ; r1 = patched instruction word
     2/8   Ori  r1, r1, lo(new)
     3/12  Ori  r4, r0, 1         ; first-pass flag
     4/16  Jmp  +4                ; -> target
     5/20  Stw  r1, 0(r2)         ; patch the target in place
     6/24  Ori  r4, r0, 0
     7/28  Jmp  +1                ; -> target
     8/32  Addi r5, r5, 1         ; TARGET: becomes Addi r5, r5, 100
     9/36  Bne  r4, r0, -4        ; first pass: back to the patch
     10/40 Halt *)
let self_modifying_program () =
  let patched = Isa.encode (Isa.Addi (5, 5, 100)) in
  let signed16 v = if v land 0x8000 <> 0 then v - 0x10000 else v in
  [
    Isa.Ori (2, 0, 32);
    Isa.Lui (1, signed16 (patched lsr 16));
    Isa.Ori (1, 1, signed16 (patched land 0xFFFF));
    Isa.Ori (4, 0, 1);
    Isa.Jmp 4;
    Isa.Stw (1, 2, 0);
    Isa.Ori (4, 0, 0);
    Isa.Jmp 1;
    Isa.Addi (5, 5, 1);
    Isa.Bne (4, 0, -4);
    Isa.Halt;
  ]

let run_with_fastpath fast instrs =
  with_fastpath fast @@ fun () ->
  let mem = Phys_mem.create ~bytes_total:(32 * Phys_mem.page_size) in
  let mmu = Mmu.create ~mem_pages:(Phys_mem.page_count mem) ~tlb_entries:16 () in
  let m = Machine.create ~mem ~mmu in
  List.iteri (fun i instr -> Phys_mem.write_u32 mem (i * 4) (Isa.encode instr)) instrs;
  let state = Machine.run m ~max_instructions:10_000 in
  (state, m)

let test_self_modifying_text () =
  let state, m = run_with_fastpath true (self_modifying_program ()) in
  check Alcotest.bool "halts" true (state = Machine.Halted);
  check Alcotest.int "patched instruction executed (1 + 100)" 101 (Machine.reg m 5);
  let state_ref, m_ref = run_with_fastpath false (self_modifying_program ()) in
  check Alcotest.bool "reference halts" true (state_ref = Machine.Halted);
  check Alcotest.int "reference agrees" (Machine.reg m_ref 5) (Machine.reg m 5);
  check Alcotest.int "instruction counts agree" (Machine.instructions_retired m_ref)
    (Machine.instructions_retired m)

(* ---------------- fast ≡ reference on random programs ---------------- *)

let gen_instr rng =
  let r () = Random.State.int rng 32 in
  let moff () = Random.State.int rng 64 * 8 in
  match Random.State.int rng 18 with
  | 0 -> Isa.Add (r (), r (), r ())
  | 1 -> Isa.Sub (r (), r (), r ())
  | 2 -> Isa.Mul (r (), r (), r ())
  | 3 -> Isa.Addi (r (), r (), Random.State.int rng 512 - 256)
  | 4 -> Isa.Ori (r (), r (), Random.State.int rng 32768)
  | 5 -> Isa.Lui (r (), Random.State.int rng 32768)
  | 6 -> Isa.Ld (r (), 20, moff ())
  | 7 -> Isa.Ldw (r (), 20, moff ())
  | 8 -> Isa.Ldb (r (), 20, moff ())
  | 9 -> Isa.St (r (), 20, moff ())
  | 10 -> Isa.Stw (r (), 20, moff ())
  | 11 -> Isa.Stb (r (), 20, moff ())
  | 12 -> Isa.Beq (r (), r (), Random.State.int rng 9 - 4)
  | 13 -> Isa.Bne (r (), r (), Random.State.int rng 9 - 4)
  | 14 -> Isa.Slt (r (), r (), r ())
  | 15 -> Isa.Jal (31, Random.State.int rng 7 - 2)
  | 16 -> Isa.Jr (r ())
  | _ -> Isa.Assert_nz (r (), Random.State.int rng 100)

(* Run the same random program under both interpreters and demand the
   whole observable machine — state, pc, counters, registers, memory, and
   the [on_store] event stream — comes out identical. Wild programs trap,
   loop, and self-modify; the invariant is not "no trap" but "the same
   trap at the same instruction". *)
let run_one_side fast seed =
  with_fastpath fast @@ fun () ->
  let rng = Random.State.make [| seed; 0x5107 |] in
  let mem = Phys_mem.create ~bytes_total:(8 * Phys_mem.page_size) in
  let mmu = Mmu.create ~mem_pages:(Phys_mem.page_count mem) ~tlb_entries:16 () in
  let m = Machine.create ~mem ~mmu in
  (* r20 = data base two pages up; programs load/store around it. *)
  Machine.set_reg m 20 (2 * Phys_mem.page_size);
  Phys_mem.blit_in mem (2 * Phys_mem.page_size) (Pattern.fill ~seed ~len:1024);
  let n = 8 + Random.State.int rng 56 in
  for i = 0 to n - 1 do
    Phys_mem.write_u32 mem (i * 4) (Isa.encode (gen_instr rng))
  done;
  let events = ref [] in
  Machine.set_on_store m (fun ~paddr ~width -> events := (paddr, width) :: !events);
  let state = Machine.run m ~max_instructions:400 in
  let regs = List.init 32 (Machine.reg m) in
  ( state,
    Machine.pc m,
    Machine.instructions_retired m,
    Machine.stores_retired m,
    regs,
    Phys_mem.dump mem,
    List.rev !events )

let prop_fast_matches_reference =
  QCheck.Test.make ~name:"fast interpreter = reference on random programs" ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed -> run_one_side true seed = run_one_side false seed)

(* ---------------- incremental checksums ---------------- *)

let test_checksum_range_matches_crc () =
  let rng = Random.State.make [| 77 |] in
  let psz = Phys_mem.page_size in
  let mem = Phys_mem.create ~bytes_total:(4 * psz) in
  let check_range what addr len =
    let direct =
      let b = Phys_mem.blit_out mem addr ~len in
      Checksum.crc32 b ~pos:0 ~len
    in
    check Alcotest.int what direct (Phys_mem.checksum_range mem addr ~len)
  in
  check_range "all-zero page" psz psz;
  (* Small writes take the O(written) incremental-update path; the value
     must match a from-scratch CRC every time. *)
  for i = 1 to 40 do
    Phys_mem.write_u64 mem (psz + Random.State.int rng (psz - 8)) (Random.State.full_int rng max_int);
    check_range (Printf.sprintf "after small write %d" i) psz psz
  done;
  (* A big write crosses the recompute threshold. *)
  Phys_mem.fill mem psz ~len:4096 'x';
  check_range "after bulk fill" psz psz;
  check_range "sub-page range" (psz + 8) 100;
  check_range "multi-page range" 0 (4 * psz)

let prop_crc_incremental_algebra =
  (* The identity the incremental path relies on: patching a range of M
     shifts the CRC by the raw CRC of the xor-difference, carried over the
     tail zeros. *)
  QCheck.Test.make ~name:"crc32_raw/shift_zeros patch identity" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0xC4C |] in
      let n = 1 + Random.State.int rng 4000 in
      let m = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
      let l = 1 + Random.State.int rng n in
      let p = Random.State.int rng (n - l + 1) in
      let m' = Bytes.copy m in
      let d = Bytes.create l in
      for i = 0 to l - 1 do
        let nb = Random.State.int rng 256 in
        Bytes.set d i (Char.chr (nb lxor Char.code (Bytes.get m (p + i))));
        Bytes.set m' (p + i) (Char.chr nb)
      done;
      let zeros = n - (p + l) in
      Checksum.crc32 m' ~pos:0 ~len:n
      = Checksum.crc32 m ~pos:0 ~len:n
        lxor Checksum.shift_zeros (Checksum.crc32_raw d ~pos:0 ~len:l) ~zeros)

(* ---------------- pattern stream ---------------- *)

let test_pattern_fill_at () =
  List.iter
    (fun seed ->
      let whole = Pattern.fill ~seed ~len:5000 in
      let part = Pattern.fill_at ~seed ~offset:1234 ~len:999 in
      for i = 0 to 998 do
        if Bytes.get part i <> Bytes.get whole (1234 + i) then
          Alcotest.failf "fill_at mismatch at %d (seed %d)" i seed
      done;
      for i = 0 to 200 do
        if Pattern.byte_at ~seed (i * 17) <> Bytes.get whole (i * 17) then
          Alcotest.failf "byte_at mismatch at %d (seed %d)" (i * 17) seed
      done)
    [ 1; 2; 42; 1000 ]

(* ---------------- harness: fast/reference at -j1/-j4 ---------------- *)

let quick_config =
  {
    Campaign.default_config with
    Campaign.warmup_steps = 15;
    max_steps = 70;
    memtest_files = 10;
    memtest_file_bytes = 16 * 1024;
    background_andrew = 1;
    andrew_scale = 0.02;
  }

let test_fast_reference_parallel_agree () =
  let run fast domains =
    with_fastpath fast @@ fun () ->
    Reliability.run ~campaign:quick_config
      ~systems:[ Campaign.Rio_with_protection; Campaign.Disk_based ]
      ~faults:[ Fault_type.Kernel_text; Fault_type.Copy_overrun ]
      { Run.default with Run.trials = 2; seed = 31; domains }
  in
  let fast1 = run true 1 in
  let fast4 = run true 4 in
  let ref1 = run false 1 in
  let ref4 = run false 4 in
  check Alcotest.bool "fast -j1 = fast -j4" true (fast1 = fast4);
  check Alcotest.bool "fast -j1 = reference -j1" true (fast1 = ref1);
  check Alcotest.bool "fast -j1 = reference -j4" true (fast1 = ref4)

let () =
  Alcotest.run "rio_fastpath"
    [
      ( "snapshot",
        [
          Alcotest.test_case "COW snapshot = dump/restore" `Quick test_snapshot_equals_dump;
          Alcotest.test_case "overlapping snapshots" `Quick test_overlapping_snapshots;
          Alcotest.test_case "restore_keep rounds with a capture inside" `Quick
            test_restore_keep_rounds;
        ] );
      ("dirty", [ Alcotest.test_case "dirty bitmap semantics" `Quick test_dirty_bitmap ]);
      ( "decode-cache",
        [ Alcotest.test_case "self-modifying text re-decodes" `Quick test_self_modifying_text ]
      );
      ("equivalence", [ qtest prop_fast_matches_reference ]);
      ( "checksum",
        [
          Alcotest.test_case "checksum_range = direct CRC" `Quick test_checksum_range_matches_crc;
          qtest prop_crc_incremental_algebra;
        ] );
      ("pattern", [ Alcotest.test_case "fill_at/byte_at slices" `Quick test_pattern_fill_at ]);
      ( "harness",
        [
          Alcotest.test_case "fast/reference agree at -j1/-j4" `Slow
            test_fast_reference_parallel_agree;
        ] );
    ]
