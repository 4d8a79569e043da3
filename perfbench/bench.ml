(* The repository benchmark.

     bench --workload fuzz-rio|table1|table2|verdict-matrix --seed N
           --seconds S --trace 0|1 [--out DIR]

   With --trace 0 it runs a workload ({!Workloads}) with tracing off and
   prints the end-to-end metrics; with --trace 1 it rebuilds the same
   trials from traced calls ({!Layers}, {!Replica}) and prints the
   per-layer metrics. The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   Files under DIR (default perfbench/out):
   - <workload>-seed<N>.digest: the simulated results of the run's first
     unit, never host timings, so two builds can be cmp'd byte for byte;
   - <workload>-seed<N>-trace<T>.json: every metric, the failures, nproc
     and the OCaml version;
   - <workload>-seed<N>.spans.tsv and .reference.spans.tsv: a traced
     run's spans. *)

module Json = Rio_util.Json
open Common

(* ---------------- arguments ---------------- *)

type args = { workload : string; seed : int; seconds : float; trace : bool; out : string }

let workloads = [ "fuzz-rio"; "table1"; "table2"; "verdict-matrix" ]

let usage () =
  prerr_endline
    "usage: bench --workload fuzz-rio|table1|table2|verdict-matrix --seed N --seconds S \
     --trace 0|1 [--out DIR]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let out = ref "perfbench/out" in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := v;
      go rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some n when n >= 0 -> seed := n | _ -> usage ());
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s when s > 0. -> seconds := s | _ -> usage ());
      go rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
      go rest
    | "--out" :: v :: rest ->
      out := v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload workloads) then usage ();
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace; out = !out }

(* ---------------- output ---------------- *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let last_line o metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" (Json.escape m.name)
          (json_number m.value) (Json.escape m.unit_))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" o.correct
    o.attempted o.failed (String.concat ", " ms)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file file s =
  let oc = open_out file in
  output_string oc s;
  close_out oc

let probe_flag = "--probe"

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = probe_flag then begin
    Probe.serve ();
    exit 0
  end;
  let a = parse_args () in
  mkdir_p a.out;
  let stem = Filename.concat a.out (Printf.sprintf "%s-seed%d" a.workload a.seed) in
  let o =
    {
      attempted = 0;
      failed = 0;
      correct = true;
      replica_ok = true;
      failures = [];
      digest = Buffer.create 4096;
    }
  in
  let t_run = now () in
  let published, info, extra =
    if not a.trace then begin
      Probe.start ~exe:Sys.executable_name ~flag:probe_flag;
      let seed = a.seed and seconds = a.seconds in
      let (rate, info), g =
        with_gc (fun () ->
            match a.workload with
            | "fuzz-rio" -> Workloads.fuzz_rio ~seed ~seconds o
            | "table1" -> Workloads.table1 ~seed ~seconds o
            | "table2" -> Workloads.table2 ~seed ~seconds o
            | _ -> Workloads.verdict_matrix ~seed ~seconds o)
      in
      write_file (stem ^ ".digest") (Buffer.contents o.digest);
      let slowdown = Probe.slowdown () in
      ( [
          metric "setup_s" (setup_s () /. slowdown) "s";
          metric "trials_per_s" (rate *. slowdown) "1/s";
          metric "peak_rss_mb" !warm_rss "MB";
        ],
        info
        @ [
            metric "setup_s_raw" (setup_s ()) "s";
            metric "trials_per_s_raw" rate "1/s";
            metric "host_slowdown" slowdown "ratio";
            metric "peak_rss_run_mb" (peak_rss_mb ()) "MB";
            metric "ops_failed_share" (ratio (float_of_int o.failed) (float_of_int o.attempted)) "ratio";
            metric "gc.alloc_mb" (mb_of_words g.words) "MB";
            metric "gc.major_collections" (float_of_int g.majors) "count";
          ],
        [
          ("digest_md5", Json.Str (Digest.to_hex (Digest.string (Buffer.contents o.digest))));
          ( "units",
            Json.Arr
              (List.rev_map
                 (fun (dt, n, user, sys) ->
                   Json.Arr [ Json.Float dt; Json.Int n; Json.Float user; Json.Float sys ])
                 !unit_log) );
        ] )
    end
    else begin
      let own = Layers.new_tracing () and reference = Layers.new_tracing () in
      let seed = a.seed and seconds = a.seconds in
      Layers.reference_set o reference ~seed:(unit_seed seed 0);
      (match a.workload with
      | "fuzz-rio" -> Layers.fuzz_rio o own ~seed ~seconds
      | "table1" -> Layers.table1 o own ~seed ~seconds
      | "table2" -> Layers.table2 o own ~seed
      | _ -> Layers.verdict_matrix o own ~seed ~seconds);
      Span.write own.Layers.ctx.Replica.sp (stem ^ ".spans.tsv");
      Span.write reference.Layers.ctx.Replica.sp (stem ^ ".reference.spans.tsv");
      ( (if o.replica_ok then Layers.layer_metrics ~own ~reference else []),
        [],
        [
          ("units", Json.Int own.Layers.units);
          ("span_families", Layers.family_table own);
          ("reference_span_families", Layers.family_table reference);
        ] )
    end
  in
  o.attempted <- max 1 o.attempted;
  let doc =
    Json.Obj
      ([
         ("workload", Json.Str a.workload);
         ("seed", Json.Int a.seed);
         ("seconds", Json.Float a.seconds);
         ("trace", Json.Bool a.trace);
         ("nproc", Json.Int (Domain.recommended_domain_count ()));
         ("ocaml", Json.Str Sys.ocaml_version);
         ("wall_s", Json.Float (now () -. t_run));
         ("correct", Json.Bool o.correct);
         ("attempted", Json.Int o.attempted);
         ("failed", Json.Int o.failed);
         ("failures", Json.Arr (List.rev_map (fun f -> Json.Str f) o.failures));
         ( "metrics",
           Json.Obj
             (List.map
                (fun m -> (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ]))
                (published @ info)) );
       ]
      @ extra)
  in
  write_file (Printf.sprintf "%s-trace%d.json" stem (if a.trace then 1 else 0)) (Json.pretty doc ^ "\n");
  Printf.printf "workload %s seed %d nproc %d ocaml %s\n" a.workload a.seed
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  List.iter (fun m -> Printf.printf "  %-30s %14.6g %s\n" m.name m.value m.unit_) (published @ info);
  print_endline (last_line o published)
