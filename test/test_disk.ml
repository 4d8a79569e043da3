(* Tests for the simulated disk: storage, timing, asynchronous queue, crash
   semantics. *)

module Disk = Rio_disk.Disk
module Engine = Rio_sim.Engine
module Costs = Rio_sim.Costs

let check = Alcotest.check

let fresh () =
  let engine = Engine.create () in
  (engine, Disk.create ~engine ~costs:Costs.default ~sectors:4096 ~seed:5 ())

let sector_of_string s =
  let b = Bytes.make Disk.sector_bytes '\000' in
  Bytes.blit_string s 0 b 0 (String.length s);
  b

let test_peek_poke () =
  let _, d = fresh () in
  Disk.poke d ~sector:7 (Bytes.of_string "hello");
  let got = Disk.peek d ~sector:7 in
  check Alcotest.string "contents" "hello" (Bytes.sub_string got 0 5);
  check Alcotest.int "padded" 0 (Char.code (Bytes.get got 5))

let test_fresh_sectors_zero () =
  let _, d = fresh () in
  check Alcotest.bytes "zero filled" (Bytes.make Disk.sector_bytes '\000') (Disk.peek d ~sector:0)

let test_write_read_sync () =
  let engine, d = fresh () in
  Disk.write_sync d ~sector:10 (sector_of_string "abc");
  let t1 = Engine.now engine in
  check Alcotest.bool "sync write takes time" true (t1 > 0);
  let got = Disk.read_sync d ~sector:10 ~count:1 in
  check Alcotest.string "roundtrip" "abc" (Bytes.sub_string got 0 3);
  check Alcotest.bool "read takes time too" true (Engine.now engine > t1)

let test_sequential_cheaper () =
  let engine, d = fresh () in
  Disk.write_sync d ~sector:0 (sector_of_string "a");
  let t0 = Engine.now engine in
  Disk.write_sync d ~sector:1 (sector_of_string "b") (* head continues *);
  let sequential = Engine.now engine - t0 in
  Disk.write_sync d ~sector:2000 (sector_of_string "c") (* far seek *);
  let t1 = Engine.now engine in
  Disk.write_sync d ~sector:100 (sector_of_string "d") (* seek back *);
  let seeky = Engine.now engine - t1 in
  check Alcotest.bool "sequential is cheaper than seeking" true (sequential < seeky)

let test_rewrite_pays_rotation () =
  let engine, d = fresh () in
  Disk.write_sync d ~sector:50 (sector_of_string "a");
  let t0 = Engine.now engine in
  Disk.write_sync d ~sector:50 (sector_of_string "b") (* missed revolution *);
  let rewrite = Engine.now engine - t0 in
  check Alcotest.bool "rewrite costs a revolution" true
    (rewrite >= 2 * Costs.default.Costs.disk_rotation_us)

let test_async_commits_later () =
  let engine, d = fresh () in
  Disk.write_async d ~sector:20 (sector_of_string "later");
  check Alcotest.int "not yet committed" 0 (Char.code (Bytes.get (Disk.peek d ~sector:20) 0));
  check Alcotest.int "pending" 1 (Disk.pending_writes d);
  Disk.drain d;
  check Alcotest.string "committed after drain" "later"
    (Bytes.sub_string (Disk.peek d ~sector:20) 0 5);
  check Alcotest.int "no pending" 0 (Disk.pending_writes d);
  ignore engine

let test_async_zero_caller_time () =
  let engine, d = fresh () in
  let t0 = Engine.now engine in
  Disk.write_async d ~sector:20 (sector_of_string "x");
  check Alcotest.int "caller does not wait" t0 (Engine.now engine)

let test_crash_loses_queue () =
  let _, d = fresh () in
  Disk.poke d ~sector:30 (sector_of_string "old");
  Disk.write_async d ~sector:30 (sector_of_string "new");
  (* The request has not started (disk idle? it starts immediately at now);
     in-flight tearing applies. Crash right away. *)
  Disk.crash d;
  check Alcotest.int "queue cleared" 0 (Disk.pending_writes d);
  let got = Bytes.sub_string (Disk.peek d ~sector:30) 0 3 in
  check Alcotest.bool "data is either old or torn, not new" true (got <> "new")

let test_crash_tears_inflight () =
  let engine, d = fresh () in
  (* Start a long multi-sector write and crash midway. *)
  let big = Bytes.make (64 * Disk.sector_bytes) 'W' in
  Disk.write_async d ~sector:100 big;
  Engine.advance_by engine (Costs.default.Costs.disk_seek_us + 2_000);
  Disk.crash d;
  (* Some prefix committed; at least one sector is not 'W'-filled. *)
  let all_w = ref true in
  for s = 100 to 163 do
    if Disk.peek d ~sector:s <> Bytes.make Disk.sector_bytes 'W' then all_w := false
  done;
  check Alcotest.bool "not all sectors survived" false !all_w

let test_bounded_queue_blocks () =
  let engine, d = fresh () in
  let t0 = Engine.now engine in
  for i = 0 to 40 do
    Disk.write_async d ~sector:(i * 16) (sector_of_string "q")
  done;
  (* More than the queue depth: the caller must have waited for room. *)
  check Alcotest.bool "caller throttled" true (Engine.now engine > t0)

let test_read_after_queued_write () =
  let _, d = fresh () in
  Disk.write_async d ~sector:40 (sector_of_string "queued");
  (* A FIFO read behind the write sees its result. *)
  let got = Disk.read_sync d ~sector:40 ~count:1 in
  check Alcotest.string "read sees earlier queued write" "queued" (Bytes.sub_string got 0 6)

let test_stats () =
  let _, d = fresh () in
  Disk.write_sync d ~sector:0 (sector_of_string "a");
  ignore (Disk.read_sync d ~sector:0 ~count:1);
  let s = Disk.stats d in
  check Alcotest.int "writes" 1 s.Disk.writes;
  check Alcotest.int "reads" 1 s.Disk.reads;
  Disk.reset_stats d;
  check Alcotest.int "reset" 0 (Disk.stats d).Disk.reads

let test_out_of_range () =
  let _, d = fresh () in
  Alcotest.check_raises "read past capacity"
    (Invalid_argument "Disk: sectors [4096,+1) outside capacity 4096") (fun () ->
      ignore (Disk.read_sync d ~sector:4096 ~count:1))

let test_deterministic_tear () =
  (* Same seed, same crash point -> identical torn bytes. *)
  let run () =
    let engine = Engine.create () in
    let d = Disk.create ~engine ~costs:Costs.default ~sectors:4096 ~seed:99 () in
    Disk.write_async d ~sector:5 (sector_of_string "x");
    Engine.advance_by engine 1_000;
    Disk.crash d;
    Disk.peek d ~sector:5
  in
  check Alcotest.bytes "deterministic" (run ()) (run ())

(* ---------------- nonzero-bitmap invariant + checkpoint guards ---------------- *)

let test_invariant_after_poke () =
  let _, d = fresh () in
  Disk.poke d ~sector:3 (sector_of_string "abc");
  Disk.check_invariant d;
  (* Poking an all-zero buffer must clear the entry, not leave an all-zero
     platter entry behind the set bit. *)
  Disk.poke d ~sector:3 (Bytes.make Disk.sector_bytes '\000');
  Disk.check_invariant d;
  check Alcotest.bytes "reads back zero" (Bytes.make Disk.sector_bytes '\000')
    (Disk.peek d ~sector:3)

let test_invariant_after_crash () =
  let engine, d = fresh () in
  Disk.poke d ~sector:100 (sector_of_string "old");
  Disk.write_async d ~sector:100 (Bytes.make (8 * Disk.sector_bytes) 'W');
  Engine.advance_by engine 1_000;
  Disk.crash d;
  (* Whatever the tear left (garbage, prefix, or zeros), the bitmap must
     still match the entries exactly. *)
  Disk.check_invariant d

let test_invariant_after_zeros () =
  let _, d = fresh () in
  Disk.write_sync d ~sector:60 (sector_of_string "full");
  Disk.write_sync d ~sector:66 (sector_of_string "kept apart");
  (* Sectors 60 and 62-63 known zero; 61 and 64 from the (garbage-filled)
     buffer, which is never read at the known-zero sectors. *)
  let data = Bytes.make (5 * Disk.sector_bytes) 'G' in
  Bytes.fill data (4 * Disk.sector_bytes) Disk.sector_bytes '\000';
  Disk.write_sync_sparse d ~sector:60 ~count:5 ~granule:1
    ~known_zero:(fun i -> i = 0 || i = 2 || i = 3)
    data;
  Disk.check_invariant d;
  let zero = Bytes.make Disk.sector_bytes '\000' in
  check Alcotest.bytes "known-zero sector zeroed" zero (Disk.peek d ~sector:60);
  check Alcotest.bytes "buffer sector written" (Bytes.make Disk.sector_bytes 'G')
    (Disk.peek d ~sector:61);
  check Alcotest.bytes "zero buffer sector stores nothing" zero (Disk.peek d ~sector:64);
  check Alcotest.bytes "outside the request untouched" (sector_of_string "kept apart")
    (Disk.peek d ~sector:66)

(* Granules of 3 sectors over a 7-sector request (the last granule is
   short): the middle one known zero. Contents, clock and statistics come
   out as a plain write_sync of the same bytes leaves them. *)
let test_sparse_write_matches_write_sync () =
  let data = Bytes.init (7 * Disk.sector_bytes) (fun i -> Char.chr (1 + (i mod 200))) in
  Bytes.fill data (3 * Disk.sector_bytes) (3 * Disk.sector_bytes) '\000';
  let e1, d1 = fresh () and e2, d2 = fresh () in
  List.iter (fun d -> Disk.write_sync d ~sector:203 (sector_of_string "stale")) [ d1; d2 ];
  Disk.write_sync d1 ~sector:200 data;
  let sparse = Bytes.copy data in
  Bytes.fill sparse (3 * Disk.sector_bytes) (3 * Disk.sector_bytes) 'X';
  Disk.write_sync_sparse d2 ~sector:200 ~count:7 ~granule:3 ~known_zero:(fun g -> g = 1) sparse;
  for s = 198 to 209 do
    check Alcotest.bytes (Printf.sprintf "sector %d" s) (Disk.peek d1 ~sector:s) (Disk.peek d2 ~sector:s)
  done;
  check Alcotest.int "same clock" (Engine.now e1) (Engine.now e2);
  check Alcotest.bool "same stats" true (Disk.stats d1 = Disk.stats d2);
  Disk.check_invariant d2

(* An empty buffer is a zero-sector request: it is scheduled and counted
   like any sync write, and leaves the store alone. *)
let test_empty_write_sync () =
  let engine, d = fresh () in
  Disk.write_sync d ~sector:100 (sector_of_string "kept");
  let t0 = Engine.now engine and s0 = Disk.stats d in
  Disk.write_sync d ~sector:100 Bytes.empty;
  let s1 = Disk.stats d in
  check Alcotest.bool "request takes disk time" true (Engine.now engine > t0);
  check Alcotest.int "one more write" (s0.Disk.writes + 1) s1.Disk.writes;
  check Alcotest.int "no sectors written" s0.Disk.sectors_written s1.Disk.sectors_written;
  check Alcotest.bytes "sector untouched" (sector_of_string "kept") (Disk.peek d ~sector:100);
  Disk.check_invariant d

let test_invariant_after_restore () =
  let engine, d = fresh () in
  Disk.write_sync d ~sector:8 (sector_of_string "kept");
  let ck = Disk.checkpoint d in
  Disk.write_sync d ~sector:8 (sector_of_string "overwritten");
  Disk.write_sync d ~sector:9 (sector_of_string "new");
  Disk.restore d ck;
  Disk.check_invariant d;
  check Alcotest.string "restored" "kept" (Bytes.sub_string (Disk.peek d ~sector:8) 0 4);
  check Alcotest.bytes "sector 9 back to zero" (Bytes.make Disk.sector_bytes '\000')
    (Disk.peek d ~sector:9);
  ignore engine

let test_checkpoint_refuses_queued () =
  let _, d = fresh () in
  Disk.write_async d ~sector:12 (sector_of_string "queued");
  (match Disk.checkpoint d with
  | (_ : Disk.checkpoint) ->
    Alcotest.fail "checkpoint accepted a non-empty queue (the rewind would lose the write)"
  | exception Invalid_argument _ -> ());
  (* After a drain the same checkpoint succeeds. *)
  Disk.drain d;
  ignore (Disk.checkpoint d : Disk.checkpoint)

let () =
  Alcotest.run "rio_disk"
    [
      ( "storage",
        [
          Alcotest.test_case "peek/poke" `Quick test_peek_poke;
          Alcotest.test_case "fresh sectors zero" `Quick test_fresh_sectors_zero;
          Alcotest.test_case "sync roundtrip" `Quick test_write_read_sync;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
        ] );
      ( "timing",
        [
          Alcotest.test_case "sequential cheaper" `Quick test_sequential_cheaper;
          Alcotest.test_case "rewrite pays rotation" `Quick test_rewrite_pays_rotation;
          Alcotest.test_case "async is free for caller" `Quick test_async_zero_caller_time;
          Alcotest.test_case "bounded queue throttles" `Quick test_bounded_queue_blocks;
        ] );
      ( "queue+crash",
        [
          Alcotest.test_case "async commits later" `Quick test_async_commits_later;
          Alcotest.test_case "crash loses queue" `Quick test_crash_loses_queue;
          Alcotest.test_case "crash tears in-flight" `Quick test_crash_tears_inflight;
          Alcotest.test_case "read sees queued write" `Quick test_read_after_queued_write;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "deterministic tear" `Quick test_deterministic_tear;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "after poke (incl. all-zero)" `Quick test_invariant_after_poke;
          Alcotest.test_case "after crash tear" `Quick test_invariant_after_crash;
          Alcotest.test_case "after sparse write_sync" `Quick test_invariant_after_zeros;
          Alcotest.test_case "sparse write = write_sync" `Quick test_sparse_write_matches_write_sync;
          Alcotest.test_case "empty write_sync" `Quick test_empty_write_sync;
          Alcotest.test_case "after checkpoint/restore" `Quick test_invariant_after_restore;
          Alcotest.test_case "checkpoint refuses queued writes" `Quick
            test_checkpoint_refuses_queued;
        ] );
    ]
