(* Traced rebuilds of one fuzz trial, one Table 1 attempt and one Table 2
   cell. [Fuzzer.run], [Campaign.run_one] and [Performance.measure_workload]
   are single calls, so the traced run cannot time their insides; these
   functions make the same public calls in the same order and wrap each in
   a span. Bench's self-check runs each rebuild next to the library entry
   on the same inputs and refuses to publish layer numbers on any
   difference. *)

module Engine = Rio_sim.Engine
module Kernel = Rio_kernel.Kernel
module Kcrash = Rio_kernel.Kcrash
module Fs = Rio_fs.Fs
module Fs_types = Rio_fs.Fs_types
module Fsck = Rio_fs.Fsck
module Block_cache = Rio_fs.Block_cache
module Disk = Rio_disk.Disk
module Phys_mem = Rio_mem.Phys_mem
module Layout = Rio_mem.Layout
module Machine = Rio_cpu.Machine
module Rio_cache = Rio_core.Rio_cache
module Warm_reboot = Rio_core.Warm_reboot
module Vista = Rio_txn.Vista
module Trace = Rio_obs.Trace
module World = Rio_world.World
module Boundary = Rio_check.Boundary
module Explorer = Rio_check.Explorer
module Program = Rio_fuzz.Program
module Fuzzer = Rio_fuzz.Fuzzer
module Script = Rio_workload.Script
module Gen = Rio_workload.Script.Gen
module Memtest = Rio_workload.Memtest
module Andrew = Rio_workload.Andrew
module Sdet = Rio_workload.Sdet
module Cp_rm = Rio_workload.Cp_rm
module Campaign = Rio_fault.Campaign
module Injector = Rio_fault.Injector
module Performance = Rio_harness.Performance
module Cov = Rio_cov.Cov
module Prng = Rio_util.Prng
module Pattern = Rio_util.Pattern

(* Layer counts read at the same boundaries as the spans. *)
type counts = {
  mutable pages_restored : int;
  mutable boundaries : int;
  mutable instr_activity : int;  (** Retired inside [Kernel.run_activity]. *)
  mutable instr_total : int;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable data_hits : int;
  mutable data_misses : int;
  mutable data_writebacks : int;
  mutable meta_hits : int;
  mutable meta_misses : int;
  mutable meta_evictions : int;
  mutable disk_requests : int;
  mutable disk_sectors_written : int;
  mutable disk_seeks : int;
  mutable disk_busy_us : int;
}

type ctx = { sp : Span.t; c : counts }

let create_ctx () =
  {
    sp = Span.create ();
    c =
      {
        pages_restored = 0;
        boundaries = 0;
        instr_activity = 0;
        instr_total = 0;
        tlb_hits = 0;
        tlb_misses = 0;
        data_hits = 0;
        data_misses = 0;
        data_writebacks = 0;
        meta_hits = 0;
        meta_misses = 0;
        meta_evictions = 0;
        disk_requests = 0;
        disk_sectors_written = 0;
        disk_seeks = 0;
        disk_busy_us = 0;
      };
  }

let span ctx name f = Span.record ctx.sp name f

(* ---------------- fuzz trial ---------------- *)

type template = { w : World.t; probe : Boundary.t; pay : Program.world }

let make_rio ctx ~(spec : Explorer.spec) kernel =
  span ctx "rio.cache_create" (fun () ->
      ignore
        (Rio_cache.create ~shadow:spec.Explorer.shadow ~registry:spec.Explorer.registry
           ~mem:(Kernel.mem kernel) ~layout:(Kernel.layout kernel) ~mmu:(Kernel.mmu kernel)
           ~engine:(Kernel.engine kernel) ~costs:(Kernel.costs kernel)
           ~hooks:(Kernel.hooks kernel) ~pool_alloc:(Kernel.pool_alloc kernel)
           ~protection:spec.Explorer.protection ~dev:1 ()
          : Rio_cache.t))

(* The fuzzer's per-(spec, seed) template: built, probed, payload planted,
   frozen. *)
let template ctx ~(spec : Explorer.spec) ~seed =
  let w =
    span ctx "world.create" (fun () ->
        World.create ~obs:Trace.null ~protection:spec.Explorer.protection
          ~shadow:spec.Explorer.shadow ~registry:spec.Explorer.registry
          ~policy:spec.Explorer.policy ~backend:spec.Explorer.backend
          ~wb_unordered:spec.Explorer.wb_unordered ~seed ())
  in
  let probe = Boundary.create ~mem:(World.mem w) ~obs:Trace.null () in
  Boundary.instrument_hooks probe (World.hooks w);
  Boundary.instrument_disk probe (World.disk w);
  let pay = Program.setup (World.fs w) in
  let vst = Vista.save pay.Program.store in
  World.on_restore w (fun () ->
      Boundary.drop_capture probe;
      Vista.restore pay.Program.store vst);
  span ctx "world.freeze" (fun () -> World.freeze w);
  { w; probe; pay }

let dispose t =
  Boundary.drop_capture t.probe;
  World.dispose t.w

(* Restore, arm and run [ops] until the trip (or the end). Returns the
   boundaries emitted, their labels, the op start ordinals and the op the
   trip interrupted. *)
let run_pass ctx t ~ops ~trip =
  ctx.c.pages_restored <- ctx.c.pages_restored + span ctx "world.restore" (fun () -> World.restore t.w);
  Vista.set_observer t.pay.Program.store (Boundary.vista_event t.probe);
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let op_starts = Array.make (n + 1) 0 in
  span ctx "check.arm" (fun () -> Boundary.arm t.probe ~trip_at:trip);
  let crashed = ref None in
  (try
     for k = 0 to n - 1 do
       op_starts.(k) <- Boundary.emitted t.probe;
       match span ctx "fuzz.exec" (fun () -> Program.exec t.pay arr.(k)) with
       | () -> ()
       | exception Boundary.Crash_here ->
         crashed := Some k;
         raise Stdlib.Exit
       | exception Fs_types.Fs_error _ ->
         Boundary.disarm t.probe;
         raise Fuzzer.Invalid_program
     done
   with Stdlib.Exit -> ());
  Boundary.disarm t.probe;
  let total = Boundary.emitted t.probe in
  let filled_from = match !crashed with Some k -> k + 1 | None -> n in
  for i = filled_from to n do
    op_starts.(i) <- total
  done;
  (total, Boundary.labels t.probe, op_starts, !crashed)

(* Crash recovery and audit after [run_pass] tripped inside op [k]. *)
let recover ctx ~(spec : Explorer.spec) t ~ops k =
  let w = t.w in
  let engine = World.engine w and kernel = World.kernel w in
  Fs.crash (World.fs w);
  let tripped = Boundary.tripped_label t.probe in
  let problems =
    if spec.Explorer.cold then begin
      Boundary.drop_capture t.probe;
      let report = span ctx "fs.fsck" (fun () -> Fsck.run ~disk:(World.disk w)) in
      if report.Fsck.unrecoverable then []
      else begin
        let kernel2 =
          span ctx "kernel.boot_on_disk" (fun () ->
              Kernel.boot_on_disk ~engine ~costs:(World.costs w) (World.config w)
                ~disk:(Kernel.disk kernel))
        in
        make_rio ctx ~spec kernel2;
        let problems =
          match span ctx "kernel.mount" (fun () -> Kernel.mount kernel2 ~policy:spec.Explorer.policy) with
          | fs2 -> (
            try span ctx "fuzz.oracle" (fun () -> Program.check_cold fs2 ~ops ~in_flight:k)
            with Fs_types.Fs_error m -> [ "cold recovery check raised: " ^ m ])
          | exception Fs_types.Fs_error _ -> []
        in
        Phys_mem.retire (Kernel.mem kernel2);
        problems
      end
    end
    else begin
      span ctx "check.crash_image_restore" (fun () -> Boundary.restore_crash_image t.probe);
      let recovered = ref None in
      ignore
        (span ctx "rio.warm_reboot" (fun () ->
             Warm_reboot.perform ~mem:(World.mem w) ~disk:(World.disk w) ~layout:(World.layout w)
               ~engine ~reboot:(fun () ->
                 let kernel2 =
                   span ctx "kernel.boot_warm" (fun () ->
                       Kernel.boot_warm ~engine ~costs:(World.costs w) (World.config w)
                         ~mem:(Kernel.mem kernel) ~disk:(Kernel.disk kernel))
                 in
                 make_rio ctx ~spec kernel2;
                 let fs2 =
                   span ctx "kernel.mount" (fun () -> Kernel.mount kernel2 ~policy:spec.Explorer.policy)
                 in
                 recovered := Some fs2;
                 fs2))
          : Warm_reboot.report);
      let fs2 = Option.get !recovered in
      try span ctx "fuzz.oracle" (fun () -> Program.check fs2 ~ops ~in_flight:k)
      with Fs_types.Fs_error m -> [ "recovery check raised: " ^ m ]
    end
  in
  (tripped, problems)

(* [Fuzzer.run_attempt] over a rented template. *)
let attempt ctx ~spec t ~ops ~trip : Fuzzer.attempt =
  let total, labels, op_starts, crashed = run_pass ctx t ~ops ~trip in
  match crashed with
  | None ->
    { boundaries = total; labels; op_starts; crashed_during = None; tripped = None; problems = [] }
  | Some k ->
    let tripped, problems = recover ctx ~spec t ~ops k in
    { boundaries = total; labels; op_starts; crashed_during = Some k; tripped; problems }

(* The fuzzer's stratified crash pick with coverage off: a label class
   uniformly, then an ordinal within it. *)
let pick_boundary prng labels =
  let classes = Hashtbl.create 16 in
  let order = ref [] in
  List.iteri
    (fun i l ->
      let cls = Cov.label_class l in
      match Hashtbl.find_opt classes cls with
      | Some ords -> Hashtbl.replace classes cls (i :: ords)
      | None ->
        order := cls :: !order;
        Hashtbl.replace classes cls [ i ])
    labels;
  let order = Array.of_list (List.rev !order) in
  let cls = order.(Prng.int prng (Array.length order)) in
  let ords = Array.of_list (List.rev (Hashtbl.find classes cls)) in
  ords.(Prng.int prng (Array.length ords))

(* Trial [t] of [Fuzzer.run] at [world_seed]: its program and PRNG. *)
let trial_program ~(spec : Explorer.spec) ~world_seed ~max_ops t =
  let prng = Prng.create ~seed:((world_seed * 0x1000003) + t) in
  let nops = 1 + Prng.int prng max_ops in
  let gspec =
    if spec.Explorer.policy = Fs.Rio_idle then { Program.gen_spec with Gen.sync = true }
    else Program.gen_spec
  in
  (prng, Gen.generate ~prng gspec ~ops:nops)

type trial = {
  boundaries : int;
  problems : string list;  (** [] = the crash was survived. *)
  ops : Gen.op list;
  ordinal : int;
}

(* One fuzz trial: counting pass, stratified pick, crash pass, recovery,
   audit. *)
let fuzz_trial ctx ~spec t ~world_seed ~max_ops trial_ix =
  span ctx "fuzz.trial" (fun () ->
      let prng, ops = trial_program ~spec ~world_seed ~max_ops trial_ix in
      let counting = span ctx "fuzz.count_pass" (fun () -> attempt ctx ~spec t ~ops ~trip:(-1)) in
      ctx.c.boundaries <- ctx.c.boundaries + counting.boundaries;
      if counting.boundaries = 0 then { boundaries = 0; problems = []; ops; ordinal = -1 }
      else begin
        let r = pick_boundary prng counting.labels in
        let _, _, _, crashed = span ctx "fuzz.crash_pass" (fun () -> run_pass ctx t ~ops ~trip:r) in
        let problems =
          match crashed with
          | Some k -> snd (recover ctx ~spec t ~ops k)
          | None -> [ Printf.sprintf "crash point %d was not reached on replay" r ]
        in
        { boundaries = counting.boundaries; problems; ops; ordinal = r }
      end)

(* ---------------- Table 1 attempt ---------------- *)

type t1_outcome = { discarded : bool; crash_message : string option; corrupted : bool }

let static_seed = 0x57A7

(* [Campaign.run_one]: boot, warm up, inject, run to crash or watchdog,
   recover, compare with memTest's reconstruction. *)
let table1_attempt ctx (cfg : Campaign.config) system fault ~seed =
  span ctx "fault.attempt" (fun () ->
      let trial_mems = ref [] in
      let policy, protection, fsync_writes =
        match system with
        | Campaign.Disk_based -> (Fs.Ufs_default, None, true)
        | Campaign.Rio_without_protection -> (Fs.Rio_policy, Some false, false)
        | Campaign.Rio_with_protection -> (Fs.Rio_policy, Some true, false)
      in
      let w =
        span ctx "world.create" (fun () ->
            World.create ~obs:Trace.null ~config:cfg.Campaign.kernel_config
              ~rio:(protection <> None) ~protection:(protection = Some true) ~policy ~seed ())
      in
      let engine = World.engine w and costs = World.costs w and kcfg = World.config w in
      let kernel = World.kernel w and fs = World.fs w in
      let machine = Kernel.machine kernel in
      Fs.mkdir fs "/static";
      let data = Pattern.fill ~seed:static_seed ~len:24_000 in
      Fs.write_file fs "/static/copy-a" data;
      Fs.write_file fs "/static/copy-b" data;
      let mt_config =
        {
          Memtest.default_config with
          Memtest.seed = seed lxor 0x77;
          max_files = cfg.Campaign.memtest_files;
          max_file_bytes = cfg.Campaign.memtest_file_bytes;
          fsync_every_write = fsync_writes;
        }
      in
      let mt = Memtest.create mt_config in
      let andrews =
        List.init cfg.Campaign.background_andrew (fun i ->
            Andrew.runner
              (Andrew.create ~scale:cfg.Campaign.andrew_scale ~seed:(200 + i)
                 ~root:(Printf.sprintf "/bg%d" i) ()))
      in
      let activity () =
        let i0 = Machine.instructions_retired machine in
        Fun.protect
          ~finally:(fun () ->
            ctx.c.instr_activity <- ctx.c.instr_activity + Machine.instructions_retired machine - i0)
          (fun () -> span ctx "kernel.run_activity" (fun () -> Kernel.run_activity kernel))
      in
      let one_step () =
        span ctx "workload.memtest_step" (fun () -> Memtest.step mt ~fs ());
        List.iter
          (fun r -> ignore (span ctx "workload.andrew_step" (fun () -> Script.step r fs) : bool))
          andrews;
        for _ = 1 to cfg.Campaign.activity_per_step do
          activity ()
        done
      in
      for _ = 1 to cfg.Campaign.warmup_steps do
        one_step ()
      done;
      let inj_prng = Prng.create ~seed:(seed lxor 0xFA17) in
      span ctx "fault.inject" (fun () ->
          Injector.inject_many kernel ~prng:inj_prng fault ~count:cfg.Campaign.faults_per_run);
      (* The campaign's wild-store watch: same per-store work, counts only. *)
      let layout = Kernel.layout kernel in
      let wild = ref 0 in
      let memo_list = ref [] and memo_page = ref (-1) and memo_ok = ref false in
      Machine.set_on_store machine (fun ~paddr ~width:_ ->
          match Layout.kind_of_addr layout paddr with
          | Some Layout.Buffer_cache -> incr wild
          | Some Layout.Page_pool ->
            let page = paddr - (paddr mod Phys_mem.page_size) in
            let owned = Kernel.owned_pool_pages kernel in
            let ok =
              if owned == !memo_list && page = !memo_page then !memo_ok
              else begin
                let r = List.mem page owned in
                memo_list := owned;
                memo_page := page;
                memo_ok := r;
                r
              end
            in
            if not ok then incr wild
          | Some
              ( Layout.Kernel_text | Layout.Kernel_heap | Layout.Kernel_stack
              | Layout.Page_tables | Layout.Registry )
          | None -> ());
      let crash = ref None in
      (try
         for _ = 1 to cfg.Campaign.max_steps do
           one_step ()
         done
       with
      | Kcrash.Crashed info -> crash := Some info
      | Fs_types.Fs_error msg ->
        crash :=
          Some { Kcrash.cause = Kcrash.Panic msg; during = "file system"; at_us = Engine.now engine }
      | Invalid_argument msg ->
        crash :=
          Some
            {
              Kcrash.cause = Kcrash.Panic ("machine check: " ^ msg);
              during = "kernel";
              at_us = Engine.now engine;
            });
      ctx.c.instr_total <- ctx.c.instr_total + Machine.instructions_retired machine;
      let tlb = Rio_vm.Mmu.tlb (Kernel.mmu kernel) in
      ctx.c.tlb_hits <- ctx.c.tlb_hits + Rio_vm.Tlb.hits tlb;
      ctx.c.tlb_misses <- ctx.c.tlb_misses + Rio_vm.Tlb.misses tlb;
      let outcome =
        match !crash with
        | None -> { discarded = true; crash_message = None; corrupted = false }
        | Some info ->
          Kernel.crash_system kernel info;
          let checksum_detected = ref false in
          let recovered_fs =
            match system with
            | Campaign.Disk_based ->
              ignore (span ctx "fs.fsck" (fun () -> Fsck.run ~disk:(Kernel.disk kernel)) : Fsck.report);
              let kernel2 =
                span ctx "kernel.boot_on_disk" (fun () ->
                    Kernel.boot_on_disk ~engine ~costs kcfg ~disk:(Kernel.disk kernel))
              in
              trial_mems := Kernel.mem kernel2 :: !trial_mems;
              span ctx "kernel.mount" (fun () -> Kernel.mount kernel2 ~policy:Fs.Ufs_default)
            | Campaign.Rio_without_protection | Campaign.Rio_with_protection ->
              let prot = system = Campaign.Rio_with_protection in
              let fs_ref = ref None in
              let report =
                span ctx "rio.warm_reboot" (fun () ->
                    Warm_reboot.perform ~mem:(Kernel.mem kernel) ~disk:(Kernel.disk kernel)
                      ~layout:(Kernel.layout kernel) ~engine ~reboot:(fun () ->
                        let kernel2 =
                          span ctx "kernel.boot_warm" (fun () ->
                              Kernel.boot_warm ~engine ~costs kcfg ~mem:(Kernel.mem kernel)
                                ~disk:(Kernel.disk kernel))
                        in
                        span ctx "rio.cache_create" (fun () ->
                            ignore
                              (Rio_cache.create ~mem:(Kernel.mem kernel2)
                                 ~layout:(Kernel.layout kernel2) ~mmu:(Kernel.mmu kernel2)
                                 ~engine:(Kernel.engine kernel2) ~costs:(Kernel.costs kernel2)
                                 ~hooks:(Kernel.hooks kernel2)
                                 ~pool_alloc:(Kernel.pool_alloc kernel2) ~protection:prot ~dev:1 ()
                                : Rio_cache.t));
                        let fs2 =
                          span ctx "kernel.mount" (fun () -> Kernel.mount kernel2 ~policy:Fs.Rio_policy)
                        in
                        fs_ref := Some fs2;
                        fs2))
              in
              checksum_detected :=
                report.Warm_reboot.meta_verify.Warm_reboot.mismatched > 0
                || report.Warm_reboot.data_verify.Warm_reboot.mismatched > 0;
              Option.get !fs_ref
          in
          let discrepancies, static_ok =
            span ctx "workload.memtest_audit" (fun () ->
                let replayed = Memtest.replay mt_config ~steps:(Memtest.steps_done mt) in
                let exempt = Memtest.touched_by_next_step replayed in
                let d =
                  match Memtest.compare_with_fs replayed recovered_fs ~exempt with
                  | d -> List.map Memtest.discrepancy_to_string d
                  | exception Fs_types.Fs_error msg -> [ "comparison failed: " ^ msg ]
                in
                let static_ok =
                  match
                    (Fs.read_file recovered_fs "/static/copy-a", Fs.read_file recovered_fs "/static/copy-b")
                  with
                  | a, b ->
                    Bytes.equal a b && Bytes.equal a (Pattern.fill ~seed:static_seed ~len:24_000)
                  | exception Fs_types.Fs_error _ -> false
                in
                (d, static_ok))
          in
          {
            discarded = false;
            crash_message = Some (Kcrash.message_of info);
            corrupted = discrepancies <> [] || (not static_ok) || !checksum_detected;
          }
      in
      List.iter Phys_mem.retire !trial_mems;
      World.dispose w;
      outcome)

(* ---------------- Table 2 cell ---------------- *)

let note_cell_stats ctx w =
  let fs = World.fs w in
  let d = Block_cache.stats (Fs.data_cache fs) and m = Block_cache.stats (Fs.meta_cache fs) in
  let k = Disk.stats (World.disk w) in
  let c = ctx.c in
  c.data_hits <- c.data_hits + d.Block_cache.hits;
  c.data_misses <- c.data_misses + d.Block_cache.misses;
  c.data_writebacks <- c.data_writebacks + d.Block_cache.writebacks;
  c.meta_hits <- c.meta_hits + m.Block_cache.hits;
  c.meta_misses <- c.meta_misses + m.Block_cache.misses;
  c.meta_evictions <- c.meta_evictions + m.Block_cache.evictions;
  c.disk_requests <- c.disk_requests + k.Disk.reads + k.Disk.writes;
  c.disk_sectors_written <- c.disk_sectors_written + k.Disk.sectors_written;
  c.disk_seeks <- c.disk_seeks + k.Disk.seeks;
  c.disk_busy_us <- c.disk_busy_us + k.Disk.busy_us

(* [Performance.measure_workload] on SCSI: a fresh 128 MB machine, the
   workload, simulated seconds. *)
let table2_cell ctx (config : Performance.configuration) ~scale ~seed workload =
  span ctx "harness.cell" (fun () ->
      let kcfg =
        {
          Kernel.default_config with
          Kernel.layout_config = Layout.paper_config;
          disk_sectors = 640 * 1024;
          seed;
        }
      in
      let w =
        span ctx "world.create" (fun () ->
            World.create ~config:kcfg
              ~rio:(config.Performance.rio_protection <> None)
              ~protection:(config.Performance.rio_protection = Some true)
              ~policy:config.Performance.policy ~backend:Rio_disk.Backend.Scsi ~seed ())
      in
      let engine = World.engine w and fs = World.fs w in
      let sec t0 t1 = Rio_util.Units.sec_of_usec (t1 - t0) in
      Fun.protect
        ~finally:(fun () ->
          note_cell_stats ctx w;
          World.dispose w)
      @@ fun () ->
      match workload with
      | `Cp_rm ->
        let cw = Cp_rm.create ~total_bytes:(int_of_float (scale *. 40e6)) () in
        span ctx "workload.cp_setup" (fun () ->
            Cp_rm.setup cw fs;
            Fs.sync fs;
            match config.Performance.policy with
            | Fs.Mfs | Fs.Rio_policy | Fs.Rio_idle -> ()
            | Fs.Ufs_default | Fs.Ufs_delayed | Fs.Wt_close | Fs.Wt_write | Fs.Advfs ->
              Fs.remount_cold fs);
        let t0 = Engine.now engine in
        span ctx "workload.cp" (fun () -> Cp_rm.run_cp cw fs);
        let t_cp = Engine.now engine in
        span ctx "workload.rm" (fun () -> Cp_rm.run_rm cw fs);
        (sec t0 t_cp, sec t_cp (Engine.now engine))
      | `Sdet ->
        let sw = Sdet.create ~scripts:5 ~ops_per_script:(max 20 (int_of_float (scale *. 1200.))) () in
        let t0 = Engine.now engine in
        span ctx "workload.sdet" (fun () -> Sdet.run sw fs);
        (sec t0 (Engine.now engine), 0.)
      | `Andrew ->
        let aw = Andrew.create ~scale () in
        let t0 = Engine.now engine in
        span ctx "workload.andrew" (fun () -> Andrew.run aw fs);
        (sec t0 (Engine.now engine), 0.))
