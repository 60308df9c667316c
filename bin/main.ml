(* tsp — command-line front end for the TSP reproduction.

   The eleven subcommands map onto the experiment index of DESIGN.md:
   table1 (E1/E2), faults (E3/E9/E14/E16), sweeps (E4/E7/E8/E11/E12 and
   the cache ablation), policy (E5), wsp (E6), run (E10 with --resume,
   else one-off configurations), ycsb (E15), check (E18), trace (E19,
   or E23 with --frontier), serve (E21) and recovery (E22). *)

open Cmdliner

let setup_logs style_renderer level =
  Fmt_tty.setup_std_outputs ?style_renderer ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ())

let logs_term =
  Term.(const setup_logs $ Fmt_cli.style_renderer () $ Logs_cli.level ())

(* Value parsers live next to their types in the library; [conv_of] is
   the one bridge from a library [of_string] to Cmdliner. *)
let conv_of parse print =
  Arg.conv ((fun s -> Result.map_error (fun m -> `Msg m) (parse s)), print)

let ( let* ) = Result.bind

(* An integer flag below its least value is a usage error naming the
   flag, raised before any simulation runs. *)
let int_from least ~what =
  conv_of
    (fun s ->
      match int_of_string_opt s with
      | Some n when n >= least -> Ok n
      | Some _ | None -> Error (Printf.sprintf "%S is not a %s" s what))
    Fmt.int

(* Threads, iterations, runs, repeats, heap sizes, a crash step, a
   window or a stride, a mutant rate, a value width. *)
let count_conv = int_from 1 ~what:"positive count"

(* Ballast entries, on-demand touches and a rescue budget in lines,
   where none is a choice. *)
let size_conv = int_from 0 ~what:"non-negative count"

let platform_conv =
  conv_of Nvm.Config.of_string (fun ppf p -> Fmt.string ppf p.Nvm.Config.name)

let variant_conv =
  conv_of Workload.Machine.variant_of_string
    (Fmt.of_to_string Workload.Machine.variant_to_cli_string)

let hardware_conv =
  conv_of Tsp_core.Hardware.of_string (fun ppf h ->
      Fmt.string ppf h.Tsp_core.Hardware.name)

let failure_conv =
  conv_of Tsp_core.Failure_class.of_string Tsp_core.Failure_class.pp

let recovery_mode_conv =
  conv_of Workload.Machine.recovery_mode_of_string
    (Fmt.of_to_string Workload.Machine.recovery_mode_to_string)

let fault_model_conv = conv_of Nvm.Fault_model.of_string Nvm.Fault_model.pp

let preset_conv =
  conv_of Workload.Ycsb.preset_of_string
    (Fmt.of_to_string Workload.Ycsb.preset_to_string)

(* Flags that several subcommands accept, each declared once: a
   subcommand picks only the default, or the doc where the meaning
   differs (--smoke, serve's --crash-at, faults' list of --fault-model). *)

let variant_arg ?(default = Workload.Runner.Mutex_map Atlas.Mode.Log_only)
    () =
  let doc =
    "Map variant: "
    ^ String.concat ", "
        (List.map Workload.Machine.variant_to_cli_string
           Workload.Machine.all_variants)
    ^ "."
  in
  Arg.(value & opt variant_conv default
       & info [ "variant" ] ~docv:"VARIANT" ~doc)

let platform_arg =
  Arg.(value & opt platform_conv Nvm.Config.desktop
       & info [ "platform" ] ~docv:"P" ~doc:"desktop or server.")

let hardware_arg ?(default = Tsp_core.Hardware.nvram_machine) () =
  Arg.(value & opt hardware_conv default
       & info [ "hardware" ] ~docv:"HW" ~doc:"Hardware platform model.")

let failure_arg =
  Arg.(value
       & opt failure_conv Tsp_core.Failure_class.Process_crash
       & info [ "failure" ] ~docv:"F"
           ~doc:"Injected failure class: process-crash, kernel-panic or \
                 power-outage.")

let crash_at_arg doc =
  Arg.(value & opt (some count_conv) None
       & info [ "crash-at" ] ~docv:"STEP" ~doc)

let crash_at_doc = "Inject a crash after STEP simulated memory operations."

let fault_model_info doc = Arg.info [ "fault-model" ] ~docv:"FM" ~doc

let fault_model_arg =
  Arg.(value & opt (some fault_model_conv) None
       & fault_model_info
           "Crash fault model of the injected crash: full-rescue, \
            full-discard, partial-rescue[:JOULES], torn[:PROB] or \
            bit-rot[:FLIPS].  Default: the TSP verdict of the hardware and \
            failure class.")

let from_arg =
  Arg.(value & opt count_conv 500
       & info [ "from" ] ~docv:"STEP" ~doc:"First crash step enumerated.")

let window_arg =
  Arg.(value & opt count_conv 2000
       & info [ "window" ] ~docv:"W"
           ~doc:"Number of steps the enumerated window covers.")

let stride_arg default =
  Arg.(value & opt count_conv default
       & info [ "stride" ] ~docv:"S"
           ~doc:"Enumerate every S-th step of the window.")

let journal_arg =
  Arg.(value & flag
       & info [ "journal" ]
           ~doc:"Record store history and run the recovery-observer \
                 prefix check on every crash.")

let transfers_arg =
  Arg.(value & flag
       & info [ "transfers" ]
           ~doc:"Use the bank-transfer workload (multi-store critical \
                 sections) instead of the Section 5.1 counters.")

let transfers_workload =
  Workload.Runner.Transfers { accounts = 512; initial_balance = 1000 }

(* A workload the chosen variant cannot run ([Runner.validate]) is a
   usage error naming both flags, reported before any simulation runs:
   the subcommand's term evaluates to the [Error] and exits 124. *)
let check_workload ~flag config =
  Result.map_error
    (fun why ->
      Printf.sprintf "%s with --variant %s: %s" flag
        (Workload.Machine.variant_to_cli_string config.Workload.Runner.variant)
        why)
    (Workload.Runner.validate config)

let populate_arg =
  Arg.(value & opt size_conv 0
       & info [ "populate" ] ~docv:"N"
           ~doc:"Pre-load N extra map entries (deterministic, seeded) \
                 before the workload runs — heap ballast the recovery \
                 pipeline must scan.  The region is grown to fit.")

let breakdown_arg =
  Arg.(value & flag
       & info [ "breakdown" ]
           ~doc:"Also print the cycle decomposition (where the simulated \
                 time went).")

let smoke_arg doc = Arg.(value & flag & info [ "smoke" ] ~doc)

let recovery_mode_arg =
  Arg.(value
       & opt recovery_mode_conv Workload.Machine.Eager
       & info [ "recovery-mode" ] ~docv:"MODE"
           ~doc:"How a crashed heap recovers: $(b,eager) (the costed \
                 legacy pipeline), $(b,parallel[:N]) (streamed log scan, \
                 then a streamed mark fanned over N domains; byte-identical \
                 results for any N), or $(b,incremental) (reattach after \
                 rescue + log scan and collect in the background).")

let iterations_arg default =
  Arg.(value & opt count_conv default & info [ "iterations"; "n" ] ~docv:"N"
         ~doc:"Iterations per worker thread.")

let threads_arg =
  Arg.(value & opt count_conv 8 & info [ "threads"; "t" ] ~docv:"T"
         ~doc:"Number of worker threads.")

let seed_info =
  Arg.info [ "seed" ] ~docv:"SEED"
    ~env:
      (Cmd.Env.info "TSP_SEED"
         ~doc:"Default deterministic seed for every campaign subcommand; \
               the $(b,--seed) option overrides it.")
    ~doc:"Deterministic seed; a run is a pure function of it."

let seed_arg = Arg.(value & opt int 11 & seed_info)

(* [--jobs] accepts a positive count or "auto" (the default): adapt to
   the host — clamp to [Domain.recommended_domain_count ()] and take the
   sequential no-domain path when that is 1, so a 1-core host never pays
   domain spawn/GC overhead for zero parallelism. *)
let jobs_conv =
  conv_of
    (fun s ->
      if String.lowercase_ascii s = "auto" then Ok None
      else
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok (Some n)
        | Some _ | None ->
            Error
              (Printf.sprintf
                 "invalid jobs %S: expected a positive integer or \"auto\"" s))
    (fun ppf -> function
      | None -> Format.pp_print_string ppf "auto"
      | Some n -> Format.pp_print_int ppf n)

let jobs_arg =
  Arg.(value & opt jobs_conv None
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Fan the independent simulation cells across N domains.  \
                 $(docv) may be $(b,auto) (the default): use the host's \
                 recommended domain count, falling back to sequential \
                 dispatch — no domains at all — when that is 1.  Cells are \
                 deterministic and collected in order, so results are \
                 identical for any N; $(b,--jobs 1) also spawns no \
                 domains.")

(* Campaign telemetry (--artifact-dir / --replay).

   Every campaign subcommand can write a manifest + results artifact
   pair and re-run a previous campaign from its manifest.  The argv the
   manifest stores comes from [current_argv], not [Sys.argv]: a --replay
   invocation re-enters the CLI with the manifest's stored argv, and
   recording THAT vector (rather than the outer "tsp faults --replay
   ..." one) makes a replayed run's manifest byte-identical to the
   original's. *)

let current_argv = ref Sys.argv

(* The seed TSP_SEED supplied to this run, if it supplied one.  Cmdliner
   looks the variable up only for a --seed the command line left out,
   so a lookup that finds it means the environment chose the seed.  A
   replay ignores the environment, so the stored replay argv pins that
   seed with --seed. *)
let env_seed = ref None

let env var =
  let v = Sys.getenv_opt var in
  if String.equal var "TSP_SEED" then env_seed := v;
  v

(* Forward reference to the toplevel evaluator, filled in once
   [main_cmd] exists, so the --replay handler can re-enter the CLI. *)
let reeval : (string array -> int) ref =
  ref (fun _ -> invalid_arg "reeval used before main_cmd was defined")

let artifact_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "artifact-dir" ] ~docv:"DIR"
           ~doc:"Write this campaign's run manifest and results documents \
                 (JSON, schema tsp-manifest-v1 / tsp-results-v1) under \
                 $(docv).  Both files are pure functions of the campaign \
                 inputs: byte-identical across $(b,--jobs) values, \
                 repeated runs and replays.")

let replay_arg =
  Arg.(value & opt (some string) None
       & info [ "replay" ] ~docv:"FILE"
           ~doc:"Re-run the exact campaign recorded in manifest $(docv) \
                 (as written by $(b,--artifact-dir)); every campaign flag \
                 is taken from the manifest.  This invocation's \
                 $(b,--jobs) and $(b,--artifact-dir) still apply — they \
                 never change results.")

(* If --replay was given, re-enter the CLI with the manifest's stored
   argv plus this invocation's run-only flags, and exit with its
   status.  The stored argv alone decides the run: the re-entry reads
   no environment variable. *)
let handle_replay ~artifact_dir ~jobs replay =
  match replay with
  | None -> ()
  | Some file -> (
      match Obs.Artifact.replay_of_manifest file with
      | Error msg ->
          Fmt.epr "tsp: --replay %s@." msg;
          exit 2
      | Ok args ->
          let extra =
            (match artifact_dir with
            | Some d -> [ "--artifact-dir"; d ]
            | None -> [])
            @
            match jobs with
            | Some n -> [ "--jobs"; string_of_int n ]
            | None -> []
          in
          let argv = Array.of_list (("tsp" :: args) @ extra) in
          current_argv := argv;
          env_seed := None;
          exit (!reeval argv))

let emit_artifacts artifact_dir ~subcommand ~config ~body =
  match artifact_dir with
  | None -> ()
  | Some dir ->
      let manifest =
        Obs.Artifact.manifest ~subcommand
          ~replay:
            (Obs.Artifact.replay_args !current_argv
            @ match !env_seed with Some s -> [ "--seed"; s ] | None -> [])
          ~config
      in
      let results = Obs.Artifact.results ~subcommand ~body in
      let mpath, rpath =
        Obs.Artifact.write ~dir ~subcommand ~manifest ~results
      in
      Fmt.pr "@.artifacts: %s %s@." mpath rpath

(* table1 *)

let table1_cmd =
  let run () iterations threads seed repeats breakdown jobs =
    let rows = Workload.Table1.run ~iterations ~threads ~seed ~repeats ?jobs () in
    Workload.Table1.render rows Format.std_formatter;
    if breakdown then
      List.iter
        (fun row -> Workload.Table1.render_breakdown row Format.std_formatter)
        rows
  in
  Cmd.v
    (Cmd.info "table1"
       ~doc:
         "Reproduce Table 1: throughput of the four map variants on both \
          platforms (experiments E1 and E2).")
    Term.(
      const run $ logs_term $ iterations_arg 4000 $ threads_arg $ seed_arg
      $ Arg.(value & opt count_conv 1
             & info [ "repeats" ] ~docv:"R"
                 ~doc:"Rerun each cell with R distinct seeds; report mean \
                       and half-spread.")
      $ breakdown_arg $ jobs_arg)

(* faults *)

let faults_cmd =
  let run () variant hardware failure platform runs iterations threads
      transfers wide journal fault_models exhaustive from_step window stride
      run_seed campaign_seed shrink smoke smoke_base jobs artifact_dir replay =
    let module FI = Workload.Fault_injector in
    handle_replay ~artifact_dir ~jobs replay;
    let smoke_base = smoke || smoke_base in
    let base =
      {
        (Workload.Runner.calibrated_config platform) with
        Workload.Runner.variant;
        hardware;
        failure;
        iterations;
        threads;
        journal;
      }
    in
    let base =
      if smoke_base then Workload.Runner.smoke ~sized:smoke base else base
    in
    let base =
      if transfers then
        { base with Workload.Runner.workload = transfers_workload }
      else if wide > 1 then
        {
          base with
          Workload.Runner.workload =
            Workload.Runner.Wide { h_keys = 1024; value_words = wide };
        }
      else base
    in
    let* () =
      check_workload base
        ~flag:
          (if transfers then "--transfers" else Printf.sprintf "--wide %d" wide)
    in
    let fault_models =
      if smoke && fault_models = [] then
        List.map Option.some Nvm.Fault_model.reference
      else List.map Option.some fault_models
    in
    let spec_with ?(base = base) exhaustive =
      {
        (FI.default_spec base) with
        FI.runs;
        campaign_seed;
        fault_models = (if fault_models = [] then [ None ] else fault_models);
        exhaustive;
        run_seed;
        shrink;
        repro_tag = (if smoke_base then "--smoke-base" else "");
      }
    in
    let summaries =
      if smoke then
        (* Two exhaustive windows per variant: a 2000-step sweep just
           after preload (recovery robustness while logs are short) and a
           dense window mid-workload, where the cache has evicted enough
           for discard semantics to actually bite.  Besides the requested
           variant, both commit-free newcomers face the same spectrum
           where they can run the workload — their recovery paths
           (re-attachment, recoverable-CAS repair) must stay graceful
           under every adversarial model. *)
        let smoke_variants =
          variant
          :: List.filter
               (fun v ->
                 v <> variant
                 && Result.is_ok
                      (Workload.Runner.validate
                         { base with Workload.Runner.variant = v }))
               [ Workload.Runner.Nvtraverse_map; Workload.Runner.Delayfree_map ]
        in
        List.concat_map
          (fun v ->
            let base = { base with Workload.Runner.variant = v } in
            List.map
              (fun w -> FI.run ?jobs (spec_with ~base (Some w)))
              (Workload.Runner.smoke_windows ~early_window:2000
                 ~early_stride:50 ~mid_stride:40 v))
          smoke_variants
      else
        [
          FI.run ?jobs
            (spec_with
               (if exhaustive then Some { FI.from_step; window; stride }
                else None));
        ]
    in
    List.iter (fun s -> Fmt.pr "%a@." FI.pp_summary s) summaries;
    emit_artifacts artifact_dir ~subcommand:"faults"
      ~config:(fun j ->
        let module J = Obs.Json in
        J.key j "variant";
        J.str j (Workload.Machine.variant_to_cli_string variant);
        J.key j "hardware";
        J.str j hardware.Tsp_core.Hardware.name;
        J.key j "failure";
        J.str j (Tsp_core.Failure_class.to_string failure);
        J.key j "platform";
        J.str j platform.Nvm.Config.name;
        J.key j "runs";
        J.int j runs;
        J.key j "iterations";
        J.int j base.Workload.Runner.iterations;
        J.key j "threads";
        J.int j base.Workload.Runner.threads;
        J.key j "campaign_seed";
        J.int j campaign_seed;
        J.key j "shrink";
        J.bool j shrink;
        J.key j "smoke";
        J.bool j smoke;
        J.key j "smoke_base";
        J.bool j smoke_base;
        J.key j "campaigns";
        J.int j (List.length summaries))
      ~body:(fun j ->
        Obs.Json.key j "campaigns";
        Obs.Json.arr_open j;
        List.iter (fun s -> FI.to_json j s) summaries;
        Obs.Json.arr_close j);
    let unexpected =
      List.fold_left (fun a s -> a + s.FI.unexpected_violations) 0 summaries
    in
    let violations = List.fold_left (fun a s -> a + s.FI.violations) 0 summaries in
    if unexpected > 0 then begin
      Fmt.pr
        "@.FAIL: %d unexpected violation(s) — a fault model's promise was \
         broken.  Reproducers are printed above.@."
        unexpected;
      exit 1
    end
    else if violations > 0 then begin
      Fmt.pr
        "@.NOTE: the violations above are expected — they demonstrate a \
         failure class the chosen configuration does not tolerate.@.";
      if not smoke then exit 1
    end;
    Ok ()
  in
  let runs =
    Arg.(value & opt count_conv 100 & info [ "runs" ] ~docv:"N"
           ~doc:"Number of injected crashes.")
  in
  let wide =
    Arg.(value & opt count_conv 1
         & info [ "wide" ] ~docv:"W"
             ~doc:"Use the wide-value workload with W-word values (the \
                   multi-word tearing experiment E13); 1 keeps the counter \
                   workload.")
  in
  let fault_models =
    Arg.(value
         & opt (conv_of Nvm.Fault_model.of_string_list
                  Fmt.(list ~sep:comma Nvm.Fault_model.pp)) []
         & fault_model_info
             "Comma-separated crash fault models to campaign under: \
              full-rescue, full-discard, partial-rescue[:JOULES], \
              torn[:PROB], bit-rot[:FLIPS], or 'all' for the reference \
              spectrum.  Default: the binary TSP-verdict behaviour (E3).")
  in
  let exhaustive =
    Arg.(value & flag
         & info [ "exhaustive" ]
             ~doc:"Enumerate every crash step in [--from, --from + --window) \
                   at --stride instead of sampling; uses one pinned seed \
                   (--run-seed), so coverage of the window is complete and \
                   RNG-free.")
  in
  let run_seed =
    Arg.(value & opt (some int) None
         & info [ "run-seed" ] ~docv:"SEED"
             ~doc:"Exhaustive mode: the pinned per-run seed (default: the \
                   campaign seed).")
  in
  let campaign_seed =
    Arg.(value & opt int 99
         & info [ "campaign-seed" ] ~docv:"SEED"
             ~doc:"Seed of the campaign RNG that draws sampled crash points.")
  in
  let shrink =
    Arg.(value & flag
         & info [ "shrink" ]
             ~doc:"On violation, shrink crash step, iteration count and \
                   fault-model intensity to a minimal reproducer.")
  in
  let smoke =
    smoke_arg
      "Bounded CI preset: two exhaustive campaign windows (a 2000-step \
       sweep after preload and a dense mid-workload window) across the \
       whole reference fault-model spectrum on a reduced workload.  Exits \
       non-zero only on unexpected violations."
  in
  let smoke_base =
    Arg.(value & flag
         & info [ "smoke-base" ]
             ~doc:"Use the smoke campaign's reduced workload shape (256 \
                   counter keys, 512 buckets, 1 MiB log region) without the \
                   rest of the --smoke preset; smoke reproducers carry this \
                   flag so they replay bit-exactly.")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Fault-injection campaign (experiment E3; with --hardware \
          conventional-server --failure power-outage --variant log-only it \
          becomes the E9 negative control; with --fault-model/--exhaustive \
          the adversarial crash-fidelity campaign E16).")
    Term.(term_result' ~usage:true
            (const run $ logs_term $ variant_arg () $ hardware_arg ()
             $ failure_arg $ platform_arg $ runs $ iterations_arg 800
             $ threads_arg $ transfers_arg $ wide $ journal_arg
             $ fault_models $ exhaustive $ from_arg $ window_arg
             $ stride_arg 1 $ run_seed $ campaign_seed $ shrink $ smoke
             $ smoke_base $ jobs_arg $ artifact_dir_arg $ replay_arg))

(* check *)

let check_cmd =
  let run () variant platform threads iterations from_step window stride
      mutant seed smoke jobs populate recovery_mode artifact_dir replay =
    let module CC = Workload.Check_campaign in
    handle_replay ~artifact_dir ~jobs replay;
    let base =
      {
        (Workload.Runner.calibrated_config platform) with
        Workload.Runner.variant;
        threads;
        iterations;
        seed;
        populate_objects = populate;
        recovery_mode;
      }
    in
    let base =
      if smoke then Workload.Runner.smoke base
      else Workload.Runner.smoke_workload base
    in
    let mutate, mutate_label =
      match mutant with
      | None -> (None, "")
      | Some every ->
          ( Some (CC.non_durable ~seed ~every),
            Printf.sprintf "non-durable, drops ~1/%d writes" every )
    in
    let spec_with base { Workload.Runner.from_step; window; stride } =
      { (CC.default_spec base) with CC.from_step; window; stride; mutate;
        mutate_label }
    in
    let specs =
      if smoke then
        (* Both structures the checker must clear, each over an early
           window (short histories, mostly pending ops) and a dense
           mid-workload window (long histories, evicted cache lines). *)
        List.concat_map
          (fun variant ->
            List.map
              (spec_with { base with Workload.Runner.variant })
              (Workload.Runner.smoke_windows ~early_window:1200
                 ~early_stride:100 ~mid_stride:100 variant))
          [
            Workload.Runner.Nonblocking_map;
            Workload.Runner.Mutex_map Atlas.Mode.Log_only;
            Workload.Runner.Nvtraverse_map;
            Workload.Runner.Delayfree_map;
          ]
      else [ spec_with base { Workload.Runner.from_step; window; stride } ]
    in
    let summaries = List.map (fun s -> CC.run ?jobs s) specs in
    List.iter (fun s -> Fmt.pr "%a@." CC.pp_summary s) summaries;
    emit_artifacts artifact_dir ~subcommand:"check"
      ~config:(fun j ->
        let module J = Obs.Json in
        J.key j "variant";
        J.str j (Workload.Machine.variant_to_cli_string variant);
        J.key j "platform";
        J.str j platform.Nvm.Config.name;
        J.key j "threads";
        J.int j base.Workload.Runner.threads;
        J.key j "iterations";
        J.int j base.Workload.Runner.iterations;
        J.key j "seed";
        J.int j seed;
        J.key j "mutant";
        (match mutant with Some n -> J.int j n | None -> J.null j);
        J.key j "populate";
        J.int j populate;
        J.key j "recovery_mode";
        J.str j (Workload.Machine.recovery_mode_to_string recovery_mode);
        J.key j "smoke";
        J.bool j smoke;
        J.key j "campaigns";
        J.int j (List.length specs))
      ~body:(fun j ->
        Obs.Json.key j "campaigns";
        Obs.Json.arr_open j;
        List.iter (fun s -> CC.to_json j s) summaries;
        Obs.Json.arr_close j);
    let flagged = List.fold_left (fun a s -> a + s.CC.flagged) 0 summaries in
    match mutant with
    | None ->
        if flagged > 0 then begin
          Fmt.pr
            "@.FAIL: %d crash point(s) whose recovered state no \
             linearization of the recorded history explains.@."
            flagged;
          exit 1
        end
        else Fmt.pr "@.Clean: every recovered state is durably linearizable.@."
    | Some _ ->
        if flagged = 0 then begin
          Fmt.pr
            "@.FAIL: the planted non-durable mutant went undetected on \
             every enumerated crash point.@.";
          exit 1
        end
        else
          Fmt.pr "@.Mutant caught: flagged on %d crash point(s).@." flagged
  in
  let mutant =
    Arg.(value & opt (some count_conv) None
         & info [ "mutant" ] ~docv:"N"
             ~doc:"Plant the seeded non-durable mutant (roughly one in N \
                   writes acknowledged but never issued) and demand the \
                   checker catches it: exits non-zero if NO crash point is \
                   flagged.")
  in
  let smoke =
    smoke_arg
      "Bounded CI preset: small cache and workload, early and mid-workload \
       exhaustive windows over both the lock-free skip list and the \
       log-only hash map.  Exits non-zero on any flagged point."
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Durable-linearizability checking campaign (experiment E18): \
          record every map operation's invocation/response interval, crash \
          at each enumerated step, recover, and verify the recovered state \
          is explained by a linearization of a prefix-closed subset of the \
          history.  Byte-identical output for any --jobs value.")
    Term.(const run $ logs_term
          $ variant_arg ~default:Workload.Runner.Nonblocking_map ()
          $ platform_arg $ threads_arg $ iterations_arg 800 $ from_arg
          $ window_arg $ stride_arg 100 $ mutant $ seed_arg $ smoke $ jobs_arg
          $ populate_arg $ recovery_mode_arg $ artifact_dir_arg $ replay_arg)

(* sweeps *)

let sweeps_cmd =
  let run () which iterations jobs =
    let module S = Workload.Sweeps in
    let table t = S.render t Format.std_formatter in
    match which with
    | `Flush_latency -> table (S.flush_latency ~iterations ?jobs ())
    | `Threads -> table (S.thread_scaling ~iterations ?jobs ())
    | `Log_cost -> table (S.log_cost_ablation ~iterations ?jobs ())
    | `Cache -> table (S.cache_ablation ~iterations ?jobs ())
    | `Read_ratio -> table (S.read_ratio ~iterations ?jobs ())
    | `Ledger ->
        Fmt.pr "%a@." S.pp_ledger
          (S.procrastination_ledger ~iterations ?jobs ())
  in
  let which =
    let sweeps =
      [ ("flush-latency", `Flush_latency); ("threads", `Threads);
        ("log-cost", `Log_cost); ("cache", `Cache);
        ("read-ratio", `Read_ratio); ("ledger", `Ledger) ]
    in
    Arg.(required & pos 0 (some (enum sweeps)) None
         & info [] ~docv:"SWEEP"
             ~doc:"One of: flush-latency (E7), threads (E8), log-cost (E4), \
                   cache, read-ratio (E12), ledger (E11).")
  in
  Cmd.v
    (Cmd.info "sweeps" ~doc:"Parameter sweeps and ablations (E4, E7, E8).")
    Term.(const run $ logs_term $ which $ iterations_arg 1500 $ jobs_arg)

(* policy *)

let policy_cmd =
  let run () =
    Fmt.pr
      "TSP decision matrix (Section 3): per platform and tolerated failure \
       class,@ whether a crash-time rescue replaces failure-free flushing.@.@.";
    List.iter
      (fun (name, verdicts) ->
        Fmt.pr "@[<v2>%s:@ %a@]@.@." name
          Fmt.(
            list ~sep:cut (fun ppf (fc, v) ->
                pf ppf "%-14s %a" (Tsp_core.Failure_class.to_string fc)
                  Tsp_core.Policy.pp_verdict v))
          verdicts)
      (Tsp_core.Policy.decision_matrix ())
  in
  Cmd.v
    (Cmd.info "policy"
       ~doc:"Print the platform x failure-class TSP decision matrix (E5).")
    Term.(const run $ logs_term)

(* wsp *)

let wsp_cmd =
  let run () hardware =
    Fmt.pr "Whole-System Persistence rescue plan for %a:@.@.%a@."
      Tsp_core.Hardware.pp hardware Tsp_core.Wsp.pp_outcome
      (Tsp_core.Wsp.of_hardware hardware);
    let o = Tsp_core.Wsp.of_hardware hardware in
    Fmt.pr "@.headroom (budget/need, worst stage): %.2f@."
      (Tsp_core.Wsp.headroom o)
  in
  Cmd.v
    (Cmd.info "wsp"
       ~doc:"Simulate the two-stage Whole-System Persistence rescue (E6).")
    Term.(const run $ logs_term
          $ hardware_arg ~default:Tsp_core.Hardware.wsp_machine ())

(* run *)

let run_cmd =
  let run () platform variant iterations threads seed crash_at hardware
      failure transfers journal resume breakdown populate recovery_mode =
    let base = Workload.Runner.calibrated_config platform in
    let workload =
      if transfers then transfers_workload else base.Workload.Runner.workload
    in
    let config =
      {
        base with
        Workload.Runner.variant;
        iterations;
        threads;
        seed;
        crash_at_step = crash_at;
        populate_objects = populate;
        recovery_mode;
        hardware;
        failure;
        workload;
        journal;
      }
    in
    let* () = check_workload config ~flag:"--transfers" in
    let* () =
      if resume then
        Result.map_error
          (fun why -> "--resume with --transfers: " ^ why)
          (Workload.Runner.validate_resume config)
      else Ok ()
    in
    if resume then begin
      let r = Workload.Runner.run_with_resume config in
      Fmt.pr "%a@." Workload.Runner.pp_resume_report r;
      if breakdown then
        Fmt.pr "@.device cycle breakdown:@.%a@." Nvm.Stats.pp_breakdown
          r.Workload.Runner.first.Workload.Runner.device_stats;
      if not r.Workload.Runner.completion_ok then exit 1
    end
    else begin
      let r = Workload.Runner.run config in
      Fmt.pr "%a@." Workload.Runner.pp_result r;
      if breakdown then
        Fmt.pr "@.device cycle breakdown:@.%a@." Nvm.Stats.pp_breakdown
          r.Workload.Runner.device_stats;
      if not (Workload.Runner.consistent r) then exit 1
    end;
    Ok ()
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"After crash recovery, restart workers from the recovered \
                   persistent state and run the workload to completion \
                   (counters only).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one configuration and print the full report.")
    Term.(term_result' ~usage:true
            (const run $ logs_term $ platform_arg $ variant_arg ()
             $ iterations_arg 2000 $ threads_arg $ seed_arg
             $ crash_at_arg crash_at_doc $ hardware_arg () $ failure_arg
             $ transfers_arg $ journal_arg $ resume $ breakdown_arg
             $ populate_arg $ recovery_mode_arg))

(* ycsb *)

let ycsb_cmd =
  let run () preset iterations records jobs =
    Workload.Sweeps.render_ycsb
      (Workload.Sweeps.ycsb_table ~iterations ~records ?jobs preset)
      Format.std_formatter
  in
  let preset =
    Arg.(value & pos 0 preset_conv Workload.Ycsb.A
         & info [] ~docv:"PRESET" ~doc:"YCSB core workload: A, B, C or F.")
  in
  let records =
    Arg.(value & opt count_conv 16384
         & info [ "records" ] ~docv:"N" ~doc:"Pre-loaded record count.")
  in
  Cmd.v
    (Cmd.info "ycsb"
       ~doc:
         "YCSB-style workload mixes (Zipfian requests) across all map \
          variants, with latency percentiles.")
    Term.(const run $ logs_term $ preset $ iterations_arg 1500 $ records
          $ jobs_arg)

(* trace *)

(* [term] paired with whether the command line gave its flag, as
   opposed to the value being the default. *)
let given term =
  Term.(const (fun (v, used) -> (v, used <> [])) $ with_used_args term)

(* The frontier's fixed run shape, for its usage error and its doc. *)
let frontier_shape =
  Printf.sprintf
    "runs every design with %d threads x %d iterations and crashes at step %d"
    Workload.Frontier.threads Workload.Frontier.iterations
    Workload.Frontier.crash_step

let trace_cmd =
  let run () platform variant (iterations, iterations_given)
      (threads, threads_given) seed (crash_at, crash_at_given) hardware
      failure fault_model out exposure ring_cap budget_lines smoke frontier
      jobs artifact_dir replay =
    handle_replay ~artifact_dir ~jobs replay;
    (* The frontier fixes its runs' shape (Frontier.run): a flag that
       would set it is a usage error, not silently dropped. *)
    let fixed =
      List.filter_map
        (fun (flag, given) -> if given then Some flag else None)
        [
          ("--threads", threads_given);
          ("--iterations", iterations_given);
          ("--crash-at", crash_at_given);
        ]
    in
    let* () =
      if frontier && fixed <> [] then
        Error
          (Printf.sprintf "%s: not settable under --frontier, which %s"
             (String.concat ", " fixed) frontier_shape)
      else Ok ()
    in
    if frontier then begin
      (* The fence-complexity frontier (EXPERIMENTS E23): every design on
         one identical counter workload, psync-per-op vs throughput vs
         recovery verdict.  Fails loudly if the tentpole ordering —
         NVTraverse strictly under log-flush on flushes/op at equal or
         better throughput — does not hold. *)
      let rows = Workload.Frontier.run ?jobs ~seed ~platform () in
      Fmt.pr "%a@." Workload.Frontier.pp rows;
      emit_artifacts artifact_dir ~subcommand:"trace"
        ~config:(fun j ->
          let module J = Obs.Json in
          J.key j "frontier";
          J.bool j true;
          J.key j "platform";
          J.str j platform.Nvm.Config.name;
          J.key j "threads";
          J.int j Workload.Frontier.threads;
          J.key j "seed";
          J.int j seed)
        ~body:(fun j ->
          Obs.Json.key j "frontier";
          Workload.Frontier.to_json j rows);
      if not (Workload.Frontier.nvtraverse_beats_logflush rows) then exit 1;
      Ok ()
    end
    else
    (* The smoke preset is the crash-campaign smoke shape with one crash
       at step 40 000, so one bounded run exercises the whole pipeline:
       workload, crash, rescue, recovery phases. *)
    let config =
      {
        (Workload.Runner.calibrated_config platform) with
        Workload.Runner.variant;
        iterations;
        threads;
        seed;
        crash_at_step = (if smoke then Some 40_000 else crash_at);
        hardware;
        failure;
        fault_model;
      }
    in
    let config = if smoke then Workload.Runner.smoke config else config in
    (* The exposure budget defaults to the hardware's residual-energy
       stage-1 rescue capacity: how many dirty lines the platform could
       actually evacuate if it died right now. *)
    let budget =
      match budget_lines with
      | Some n -> n
      | None ->
          Tsp_core.Wsp.line_rescue_budget hardware
            ~budget_j:hardware.Tsp_core.Hardware.residual_energy_j
            ~line_size:platform.Nvm.Config.line_size
    in
    let tracer = Obs.Tracer.create ~ring_cap ~budget_lines:budget () in
    let config = { config with Workload.Runner.tracer = Some tracer } in
    let r = Workload.Runner.run config in
    Fmt.pr "%a@." Workload.Runner.pp_result r;
    Obs.Chrome.write_file
      ~thread_name:(fun tid ->
        if tid < 0 then "device" else Printf.sprintf "worker-%d" tid)
      out tracer;
    Fmt.pr "@.trace: %d events emitted (%d in ring, %d overwritten) -> %s@."
      (Obs.Tracer.emitted tracer)
      (Obs.Tracer.length tracer)
      (Obs.Tracer.dropped tracer)
      out;
    Fmt.pr "@.%a@." Obs.Tracer.pp_exposure (Obs.Tracer.exposure tracer);
    Fmt.pr "@.%a@." Obs.Metrics.pp
      (Obs.Metrics.of_tracer
         ~completed_ops:(Workload.Runner.completed_ops r)
         tracer);
    if exposure then begin
      (* Coarse dirty-lines timeline over the surviving ring: max dirty
         per bucket of the trace's clock envelope, as plot-ready rows. *)
      let e = Obs.Tracer.exposure tracer in
      let lo = ref max_int and hi = ref min_int in
      Obs.Tracer.iter tracer (fun ev ->
          if ev.Obs.Tracer.ts < !lo then lo := ev.Obs.Tracer.ts;
          if ev.Obs.Tracer.ts > !hi then hi := ev.Obs.Tracer.ts);
      if !hi > !lo then begin
        let buckets = 24 in
        let peak = Array.make buckets 0 in
        let span = !hi - !lo in
        Obs.Tracer.iter tracer (fun ev ->
            let b =
              min (buckets - 1) ((ev.Obs.Tracer.ts - !lo) * buckets / span)
            in
            if ev.Obs.Tracer.dirty > peak.(b) then
              peak.(b) <- ev.Obs.Tracer.dirty);
        Fmt.pr "@.exposure timeline (peak dirty lines per bucket, ring \
                window only):@.";
        Array.iteri
          (fun i p ->
            Fmt.pr "  t=%-10d %6d%s@." (!lo + (i * span / buckets)) p
              (if e.Obs.Tracer.budget_lines >= 0
                  && p > e.Obs.Tracer.budget_lines
               then "  OVER BUDGET"
               else ""))
          peak
      end
    end;
    emit_artifacts artifact_dir ~subcommand:"trace"
      ~config:(fun j ->
        let module J = Obs.Json in
        J.key j "frontier";
        J.bool j false;
        J.key j "platform";
        J.str j platform.Nvm.Config.name;
        J.key j "variant";
        J.str j (Workload.Machine.variant_to_cli_string variant);
        J.key j "iterations";
        J.int j config.Workload.Runner.iterations;
        J.key j "threads";
        J.int j config.Workload.Runner.threads;
        J.key j "seed";
        J.int j seed;
        J.key j "crash_at";
        (match config.Workload.Runner.crash_at_step with
        | Some s -> J.int j s
        | None -> J.null j);
        J.key j "hardware";
        J.str j hardware.Tsp_core.Hardware.name;
        J.key j "failure";
        J.str j (Tsp_core.Failure_class.to_string failure);
        J.key j "fault_model";
        (match fault_model with
        | Some fm -> J.str j (Nvm.Fault_model.to_string fm)
        | None -> J.null j);
        J.key j "ring_cap";
        J.int j ring_cap;
        J.key j "budget_lines";
        J.int j budget;
        J.key j "smoke";
        J.bool j smoke)
      ~body:(fun j ->
        let module J = Obs.Json in
        J.key j "consistent";
        J.bool j (Workload.Runner.consistent r);
        let e = Obs.Tracer.exposure tracer in
        J.key j "exposure";
        J.obj_open j;
        J.key j "samples";
        J.int j e.Obs.Tracer.samples;
        J.key j "peak_dirty";
        J.int j e.Obs.Tracer.peak_dirty;
        J.key j "last_dirty";
        J.int j e.Obs.Tracer.last_dirty;
        J.key j "budget_lines";
        J.int j e.Obs.Tracer.budget_lines;
        J.key j "duration";
        J.int j e.Obs.Tracer.duration;
        J.key j "time_above_budget";
        J.int j e.Obs.Tracer.time_above_budget;
        J.key j "dirty_hist";
        Obs.Hist.to_json j e.Obs.Tracer.dirty_hist;
        J.obj_close j;
        J.key j "metrics";
        Obs.Metrics.to_json j
          (Obs.Metrics.of_tracer
             ~completed_ops:(Workload.Runner.completed_ops r)
             tracer));
    if not (Workload.Runner.consistent r) then exit 1;
    Ok ()
  in
  let out =
    Arg.(value & opt string "trace.json"
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Chrome trace-event JSON output path (load in Perfetto \
                   or chrome://tracing).")
  in
  let exposure =
    Arg.(value & flag
         & info [ "exposure" ]
             ~doc:"Also print a bucketed dirty-lines-vs-budget timeline \
                   over the trace window.")
  in
  let ring_cap =
    Arg.(value & opt (int_from 8 ~what:"ring capacity of at least 8") 65536
         & info [ "ring-cap" ] ~docv:"N"
             ~doc:"Event ring capacity, at least 8; older events are \
                   overwritten once exceeded (summary statistics stay \
                   exact).")
  in
  let budget_lines =
    Arg.(value & opt (some size_conv) None
         & info [ "budget-lines" ] ~docv:"N"
             ~doc:"Override the WSP rescue budget (in cache lines) used by \
                   the exposure accounting; default is derived from the \
                   hardware's residual energy.")
  in
  let smoke =
    smoke_arg
      "Bounded preset on a 32 KiB cache with a mid-run crash; used by dune \
       runtest to validate the trace pipeline."
  in
  let frontier =
    Arg.(value & flag
         & info [ "frontier" ]
             ~doc:("Instead of tracing one run, chart the fence-complexity \
                    frontier: every map design on one identical counter \
                    workload — psync complexity per completed operation vs \
                    throughput vs durable-linearizability and recovery \
                    verdicts.  Exits 1 unless NVTraverse strictly beats \
                    log-flush on flushes/op at equal or better throughput.  \
                    It " ^ frontier_shape ^ ", so $(b,--threads), \
                    $(b,--iterations) and $(b,--crash-at) are usage errors \
                    here."))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one configuration with the deterministic event tracer \
          attached: write a Perfetto-loadable trace and print the \
          persistence-exposure and psync-complexity summaries.  With \
          $(b,--frontier), chart every design's psync-per-op cost against \
          throughput and recovery instead.")
    Term.(term_result' ~usage:true
            (const run $ logs_term $ platform_arg $ variant_arg ()
             $ given (iterations_arg 2000) $ given threads_arg $ seed_arg
             $ given (crash_at_arg crash_at_doc) $ hardware_arg ()
             $ failure_arg $ fault_model_arg $ out $ exposure $ ring_cap
             $ budget_lines $ smoke $ frontier $ jobs_arg $ artifact_dir_arg
             $ replay_arg))

(* serve *)

let serve_cmd =
  let run () smoke platform variant shards seed keys requests rate theta preset
      crash_shard crash_at fault_model recovery_mode degraded trace_out jobs
      windows artifact_dir replay =
    handle_replay ~artifact_dir ~jobs replay;
    let base =
      if smoke then Service.Serve.smoke_config else Service.Serve.default_config
    in
    let override v f = Option.fold ~none:v ~some:f in
    let cfg =
      {
        base with
        Service.Serve.platform;
        variant;
        shards = override base.Service.Serve.shards Fun.id shards;
        seed = override base.Service.Serve.seed Fun.id seed;
        keys = override base.Service.Serve.keys Fun.id keys;
        requests = override base.Service.Serve.requests Fun.id requests;
        rate_per_mcycle = override base.Service.Serve.rate_per_mcycle Fun.id rate;
        theta = override base.Service.Serve.theta Fun.id theta;
        preset = override base.Service.Serve.preset Fun.id preset;
        crash_shard =
          override base.Service.Serve.crash_shard Option.some crash_shard;
        crash_at_step = crash_at;
        fault_model;
        recovery = recovery_mode;
        degraded = override base.Service.Serve.degraded Fun.id degraded;
        trace = trace_out <> None;
        windows = override base.Service.Serve.windows Fun.id windows;
      }
    in
    let* () = Service.Serve.validate cfg in
    let r = Service.Serve.run ?jobs cfg in
    print_string (Service.Serve.render r);
    (match trace_out with
    | None -> ()
    | Some path ->
        if Service.Serve.write_trace r ~path then
          Fmt.pr "@.trace written to %s@." path);
    emit_artifacts artifact_dir ~subcommand:"serve"
      ~config:(fun j ->
        let module J = Obs.Json in
        let module S = Service.Serve in
        J.key j "platform";
        J.str j cfg.S.platform.Nvm.Config.name;
        J.key j "variant";
        J.str j (Workload.Machine.variant_to_cli_string cfg.S.variant);
        J.key j "shards";
        J.int j cfg.S.shards;
        J.key j "seed";
        J.int j cfg.S.seed;
        J.key j "keys";
        J.int j cfg.S.keys;
        J.key j "requests";
        J.int j cfg.S.requests;
        J.key j "rate_per_mcycle";
        J.float j cfg.S.rate_per_mcycle;
        J.key j "theta";
        J.float j cfg.S.theta;
        J.key j "preset";
        J.str j (Workload.Ycsb.preset_to_string cfg.S.preset);
        J.key j "req_cycles";
        J.int j S.req_cycles;
        J.key j "crash_shard";
        (match cfg.S.crash_shard with Some s -> J.int j s | None -> J.null j);
        J.key j "crash_at_step";
        (match cfg.S.crash_at_step with Some s -> J.int j s | None -> J.null j);
        J.key j "fault_model";
        (match cfg.S.fault_model with
        | Some fm -> J.str j (Nvm.Fault_model.to_string fm)
        | None -> J.null j);
        J.key j "recovery_mode";
        J.str j (Workload.Machine.recovery_mode_to_string cfg.S.recovery);
        J.key j "degraded";
        J.str j (Fmt.str "%a" Service.Degraded.pp cfg.S.degraded);
        J.key j "log_mib";
        J.int j cfg.S.log_mib;
        J.key j "windows";
        J.int j cfg.S.windows;
        J.key j "smoke";
        J.bool j smoke)
      ~body:(fun j ->
        Obs.Json.key j "report";
        Service.Serve.to_json j r);
    if Service.Serve.failed r then exit 1;
    Ok ()
  in
  let smoke =
    smoke_arg
      "Seconds-scale CI preset: 4 shards, 16 Ki keys, 6000 requests, a crash \
       on shard 1.  Explicit options still override it."
  in
  let shards =
    Arg.(value & opt (some count_conv) None
         & info [ "shards" ] ~docv:"N" ~doc:"Number of independent shards.")
  in
  let keys =
    Arg.(value & opt (some int) None
         & info [ "keys" ] ~docv:"K"
             ~doc:"Global keyspace size (keys are hashed onto shards).")
  in
  let requests =
    Arg.(value & opt (some int) None
         & info [ "requests" ] ~docv:"N" ~doc:"Open-loop requests to issue.")
  in
  let rate =
    Arg.(value & opt (some float) None
         & info [ "arrival-rate" ] ~docv:"R"
             ~doc:"Aggregate Poisson arrival rate, requests per simulated \
                   Mcycle.")
  in
  let theta =
    Arg.(value & opt (some float) None
         & info [ "theta" ] ~docv:"T"
             ~doc:"Zipfian skew in [0, 1); 0 is the uniform degenerate case.")
  in
  let preset =
    Arg.(value & opt (some preset_conv) None
         & info [ "preset" ] ~docv:"PRESET"
             ~doc:"YCSB operation mix: A, B, C or F.")
  in
  let crash_shard =
    Arg.(value & opt (some int) None
         & info [ "crash-shard" ] ~docv:"S"
             ~doc:"Crash shard S mid-traffic and recover it online while the \
                   others keep serving.")
  in
  let degraded =
    Arg.(value
         & opt
             (some (conv_of Service.Degraded.of_string Service.Degraded.pp))
             None
         & info [ "degraded-mode" ] ~docv:"MODE"
             ~doc:"What the router does with requests for a down shard: \
                   $(b,shed), $(b,queue[:deadline]) or \
                   $(b,retry[:backoff[:max]]).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Perfetto trace with one process group per shard.")
  in
  let windows =
    Arg.(value & opt (some count_conv) None
         & info [ "windows" ] ~docv:"W"
             ~doc:"Availability-timeline resolution (number of windows).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Sharded KV service under open-loop load: N independent machines \
          behind a deterministic router, with online crash recovery of one \
          shard, graceful degradation, and availability accounting.")
    Term.(term_result' ~usage:true
            (const run $ logs_term $ smoke $ platform_arg $ variant_arg ()
             $ shards
             $ Arg.(value & opt (some int) None & seed_info)
             $ keys $ requests $ rate $ theta $ preset $ crash_shard
             $ crash_at_arg
                 "Inject a crash after STEP simulated memory operations on \
                  the victim shard (default: half its crash-free step \
                  count)."
             $ fault_model_arg $ recovery_mode_arg $ degraded $ trace_out
             $ jobs_arg $ windows $ artifact_dir_arg $ replay_arg))

(* recovery *)

let recovery_cmd =
  let module RS = Workload.Recovery_scaling in
  let run () variant sizes modes seed touches smoke artifact_dir replay =
    handle_replay ~artifact_dir ~jobs:None replay;
    let variants, sizes, modes, touches =
      if smoke then
        ( [
            Workload.Runner.Mutex_map Atlas.Mode.Log_only;
            Workload.Runner.Nonblocking_map;
          ],
          [ 1_000; 4_000 ],
          [
            Workload.Machine.Eager;
            Workload.Machine.Parallel_gc 1;
            Workload.Machine.Parallel_gc 2;
            Workload.Machine.Incremental_gc;
          ],
          32 )
      else ([ variant ], sizes, modes, touches)
    in
    let failures = ref 0 in
    let all_cells = ref [] in
    let fail msg =
      incr failures;
      Fmt.pr "FAIL: %s@." msg
    in
    Fmt.pr "%-16s %8s %-12s %14s %9s %14s %10s %6s@." "variant" "objects"
      "mode" "outage-cycles" "cyc/obj" "bg-cycles" "on-demand" "audit";
    List.iter
      (fun variant ->
        List.iter
          (fun objects ->
            let cells =
              List.map
                (fun mode ->
                  let c =
                    RS.run_cell ~variant ~objects ~mode ~seed ~touches ()
                  in
                  Fmt.pr "%-16s %8d %-12s %14d %9.1f %14d %10d %6b@."
                    (Workload.Machine.variant_to_string c.RS.variant)
                    c.RS.objects
                    (Workload.Machine.recovery_mode_to_string c.RS.mode)
                    c.RS.outage_cycles
                    (float_of_int c.RS.outage_cycles /. float_of_int objects)
                    c.RS.background_cycles c.RS.on_demand_touches
                    c.RS.heap_audit_ok;
                  c)
                modes
            in
            all_cells := !all_cells @ cells;
            List.iter fail (RS.violations cells))
          sizes)
      variants;
    emit_artifacts artifact_dir ~subcommand:"recovery"
      ~config:(fun j ->
        let module J = Obs.Json in
        J.key j "variants";
        J.arr_open j;
        List.iter
          (fun v -> J.str j (Workload.Machine.variant_to_cli_string v))
          variants;
        J.arr_close j;
        J.key j "sizes";
        J.arr_open j;
        List.iter (J.int j) sizes;
        J.arr_close j;
        J.key j "modes";
        J.arr_open j;
        List.iter
          (fun m -> J.str j (Workload.Machine.recovery_mode_to_string m))
          modes;
        J.arr_close j;
        J.key j "seed";
        J.int j seed;
        J.key j "touches";
        J.int j touches;
        J.key j "smoke";
        J.bool j smoke)
      ~body:(fun j ->
        Obs.Json.key j "failures";
        Obs.Json.int j !failures;
        Obs.Json.key j "cells";
        Obs.Json.arr_open j;
        List.iter (fun c -> RS.cell_to_json j c) !all_cells;
        Obs.Json.arr_close j);
    if !failures > 0 then begin
      Fmt.pr "@.%d recovery-scaling check(s) failed.@." !failures;
      exit 1
    end
    else if smoke then Fmt.pr "@.recovery smoke: all checks passed.@."
  in
  let sizes =
    Arg.(value
         & opt (list count_conv) [ 10_000; 100_000; 1_000_000 ]
         & info [ "sizes" ] ~docv:"N,N,..."
             ~doc:"Heap populations (object counts) to measure.")
  in
  let modes =
    Arg.(value
         & opt (list recovery_mode_conv)
             [
               Workload.Machine.Eager;
               Workload.Machine.Parallel_gc 2;
               Workload.Machine.Incremental_gc;
             ]
         & info [ "modes" ] ~docv:"M,M,..."
             ~doc:"Recovery modes to compare (eager, parallel[:N], \
                   incremental).")
  in
  let touches =
    Arg.(value & opt size_conv 64
         & info [ "touches" ] ~docv:"N"
             ~doc:"On-demand first-touch recoveries charged per \
                   incremental cell before the background collection \
                   finishes.")
  in
  let smoke =
    smoke_arg
      "Seconds-scale CI campaign: small heaps, all modes, both hash map and \
       skip list; asserts image identity across modes, parallel determinism \
       across job counts, and the incremental availability win.  Exits \
       non-zero on any failure."
  in
  Cmd.v
    (Cmd.info "recovery"
       ~doc:
         "Recovery-at-scale campaign (experiment E22): build heaps of \
          growing population, crash them, recover in each mode, and chart \
          outage cycles against heap size — the complexity curves that \
          justify parallel and incremental recovery.")
    Term.(const run $ logs_term $ variant_arg () $ sizes $ modes $ seed_arg
          $ touches $ smoke $ artifact_dir_arg $ replay_arg)

let main_cmd =
  let doc =
    "Timely Sufficient Persistence: reproduction of Nawab et al., \
     'Procrastination Beats Prevention' (EDBT 2015)"
  in
  Cmd.group
    (Cmd.info "tsp" ~version:"1.0.0" ~doc)
    [ table1_cmd; faults_cmd; check_cmd; sweeps_cmd; ycsb_cmd; policy_cmd;
      wsp_cmd; run_cmd; trace_cmd; serve_cmd; recovery_cmd ]

let () = reeval := fun argv -> Cmd.eval ~env:(fun _ -> None) ~argv main_cmd
let () = exit (Cmd.eval ~env ~argv:!current_argv main_cmd)
