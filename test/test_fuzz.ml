(* Tests for Rio_fuzz: the randomized crash-schedule fuzzer. The key
   properties are (a) generation and the whole fuzz loop are seed-
   deterministic at any domain count, (b) rio-prot fuzzes clean at a fixed
   seed, and (c) the fuzzer catches the planted unsafe ablations AND
   shrinks them to small repros — a fuzzer whose shrinker cannot reach a
   readable counterexample proves little by flagging one. *)

module Gen = Rio_workload.Script.Gen
module Program = Rio_fuzz.Program
module Fuzzer = Rio_fuzz.Fuzzer
module Explorer = Rio_check.Explorer
module Run = Rio_harness.Run
module Prng = Rio_util.Prng

let check = Alcotest.check

let cfg ?(seed = 1) ?(trials = 6) ~domains () =
  { Run.default with Run.seed; trials; domains }

(* ---------------- the generator ---------------- *)

let test_gen_deterministic () =
  let gen () =
    Gen.generate ~prng:(Prng.create ~seed:42) (Gen.default_spec ~root:"/fuzz") ~ops:20
  in
  let a = gen () and b = gen () in
  check Alcotest.int "same length" (List.length a) (List.length b);
  List.iter2
    (fun x y -> check Alcotest.string "same op" (Gen.describe x) (Gen.describe y))
    a b

let test_gen_programs_are_valid () =
  (* Valid-by-construction: the model (which raises [Not_found] on any
     dangling reference) must fold every generated program cleanly. *)
  for seed = 1 to 50 do
    let ops =
      Gen.generate ~prng:(Prng.create ~seed) (Gen.default_spec ~root:"/fuzz") ~ops:30
    in
    let m = Gen.Model.after ~root:"/fuzz" ops in
    ignore (Gen.Model.sorted_files m)
  done

let test_gen_covers_op_kinds () =
  let ops =
    Gen.generate ~prng:(Prng.create ~seed:3) (Gen.default_spec ~root:"/fuzz") ~ops:200
  in
  let seen tag =
    List.exists
      (fun (op : Gen.op) ->
        match (op, tag) with
        | Gen.Creat _, `Creat
        | Gen.Append _, `Append
        | Gen.Overwrite _, `Overwrite
        | Gen.Mkdir _, `Mkdir
        | Gen.Unlink _, `Unlink
        | Gen.Rename _, `Rename
        | Gen.Vista_txn _, `Vista ->
          true
        | _ -> false)
      ops
  in
  List.iter
    (fun tag -> check Alcotest.bool "op kind generated" true (seen tag))
    [ `Creat; `Append; `Overwrite; `Mkdir; `Unlink; `Rename; `Vista ]

(* Shrinking can drop the append that grew a file and keep a later
   overwrite of the grown range: the model must reject that sub-program
   (Not_found, like an op on a missing file), not fail inside a blit. *)
let test_model_rejects_overwrite_past_eof () =
  let creat = Gen.Creat { path = "/fuzz/f"; seed = 1; len = 10 } in
  let grow = Gen.Append { path = "/fuzz/f"; seed = 2; len = 10 } in
  let overwrite = Gen.Overwrite { path = "/fuzz/f"; offset = 8; seed = 3; len = 6 } in
  ignore (Gen.Model.after ~root:"/fuzz" [ creat; grow; overwrite ] : Gen.Model.t);
  Alcotest.check_raises "overwrite past EOF is invalid" Not_found (fun () ->
      ignore (Gen.Model.after ~root:"/fuzz" [ creat; overwrite ] : Gen.Model.t))

(* ---------------- single attempts ---------------- *)

let test_attempt_op_starts () =
  let ops =
    Gen.generate ~prng:(Prng.create ~seed:11) Program.gen_spec ~ops:4
  in
  let a = Fuzzer.run_attempt ~spec:Explorer.rio_prot ~seed:1 ~ops ~trip:(-1) () in
  check Alcotest.int "op_starts spans all ops" (List.length ops + 1)
    (Array.length a.Fuzzer.op_starts);
  check Alcotest.bool "boundaries enumerated" true (a.Fuzzer.boundaries > 0);
  check Alcotest.int "labels cover the schedule" a.Fuzzer.boundaries
    (List.length a.Fuzzer.labels);
  check Alcotest.int "first op starts at 0" 0 a.Fuzzer.op_starts.(0);
  check Alcotest.int "last entry closes the schedule" a.Fuzzer.boundaries
    a.Fuzzer.op_starts.(List.length ops);
  Array.iteri
    (fun i s ->
      if i > 0 && s < a.Fuzzer.op_starts.(i - 1) then
        Alcotest.failf "op_starts not monotone at %d" i)
    a.Fuzzer.op_starts

(* ---------------- the fuzz loop ---------------- *)

let test_rio_prot_fuzzes_clean () =
  let r = Fuzzer.run ~spec:Explorer.rio_prot (cfg ~trials:8 ~domains:2 ()) in
  (match r.Fuzzer.counterexamples with
  | [] -> ()
  | c :: _ ->
    Alcotest.failf "rio-prot violated at boundary %d (%s): %s" c.Fuzzer.ordinal
      c.Fuzzer.label
      (String.concat "; " c.Fuzzer.problems));
  check Alcotest.int "zero violations" 0 r.Fuzzer.violations

let test_parallel_determinism () =
  (* Seed 1, 6 trials of shadow-off: trial 5 violates and gets shrunk, so
     this exercises the whole pipeline including the shrinker and the
     forensics replay. *)
  let r1 = Fuzzer.run ~spec:Explorer.shadow_off (cfg ~domains:1 ()) in
  let r4 = Fuzzer.run ~spec:Explorer.shadow_off (cfg ~domains:4 ()) in
  check Alcotest.string "byte-identical render at -j 1 and -j 4" (Fuzzer.render r1)
    (Fuzzer.render r4)

let expect_shrunk_catch ~name r =
  if r.Fuzzer.violations = 0 then
    Alcotest.failf "%s produced no violations: the fuzzer cannot catch a planted hole" name;
  match r.Fuzzer.counterexamples with
  | [] -> Alcotest.failf "%s violations were not shrunk" name
  | c :: _ ->
    if List.length c.Fuzzer.ops > Fuzzer.max_repro_ops then
      Alcotest.failf "%s repro has %d ops (max %d)" name (List.length c.Fuzzer.ops)
        Fuzzer.max_repro_ops;
    check Alcotest.bool "shrunk repro keeps its problems" true (c.Fuzzer.problems <> []);
    check Alcotest.bool "shrunk repro shed ops" true
      (List.length c.Fuzzer.ops <= c.Fuzzer.original_ops);
    check Alcotest.bool "ordinal did not grow" true
      (c.Fuzzer.ordinal <= c.Fuzzer.original_ordinal);
    check Alcotest.bool "narrative present" true (c.Fuzzer.narrative <> [])

let test_shadow_off_caught_and_shrunk () =
  expect_shrunk_catch ~name:"shadow-off"
    (Fuzzer.run ~spec:Explorer.shadow_off (cfg ~domains:2 ()))

let test_registry_off_caught_and_shrunk () =
  expect_shrunk_catch ~name:"registry-off"
    (Fuzzer.run ~spec:Explorer.registry_off (cfg ~trials:2 ~domains:2 ()))

(* Seed 11004's matrix shrinks a counterexample through candidates that
   overwrite past the end of a file; the shrinker must discard them as
   invalid programs and still reach its verdicts. *)
let test_matrix_seed_11004_shrinks () =
  let entries = Fuzzer.run_matrix (cfg ~seed:11004 ~trials:40 ~domains:1 ()) in
  check Alcotest.bool "every verdict ok" true (Fuzzer.matrix_ok entries)

let () =
  Alcotest.run "rio_fuzz"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "programs valid by construction" `Quick
            test_gen_programs_are_valid;
          Alcotest.test_case "covers all op kinds" `Quick test_gen_covers_op_kinds;
          Alcotest.test_case "model rejects overwrite past EOF" `Quick
            test_model_rejects_overwrite_past_eof;
        ] );
      ( "attempt",
        [ Alcotest.test_case "op_starts attribution" `Quick test_attempt_op_starts ] );
      ( "fuzz",
        [
          Alcotest.test_case "rio-prot fuzzes clean" `Slow test_rio_prot_fuzzes_clean;
          Alcotest.test_case "parallel determinism (with shrink)" `Slow
            test_parallel_determinism;
          Alcotest.test_case "shadow-off caught and shrunk" `Slow
            test_shadow_off_caught_and_shrunk;
          Alcotest.test_case "registry-off caught and shrunk" `Slow
            test_registry_off_caught_and_shrunk;
          Alcotest.test_case "matrix seed 11004 shrinks past invalid candidates" `Slow
            test_matrix_seed_11004_shrinks;
        ] );
    ]
