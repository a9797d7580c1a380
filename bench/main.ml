(* Benchmark harness.

   Default run (what `dune exec bench/main.exe` produces):
   1. regenerates every figure and table of the paper — the experiment
      index of DESIGN.md §4 — printing the reproduced rows/series and the
      paper-vs-measured checks (fanned out across a domain pool; output
      is byte-identical to a serial run);
   2. runs a Bechamel micro-benchmark suite with one Test.make per
      experiment id, measuring that experiment's computational kernel.

   `--figures-only` / `--perf-only` restrict to one half;
   `--serial` forces the figure pass onto one domain;
   `--compare` times the figure pass serially AND in parallel, checks the
   outputs are byte-identical, and reports the speedup;
   `--jobs N` sets the pool size (default DCECC_JOBS or the recommended
   domain count);
   `--out DIR` additionally writes the figure data as CSVs;
   `--json FILE` writes the per-kernel estimates as JSON (the seed for
   the BENCH_* perf trajectory);
   `--simnet-json FILE` writes the packet-engine throughput rows
   (events/sec and minor words/event) as JSON;
   `--simnet-only` runs just the packet-engine throughput suite (the
   fast way to regenerate the committed BENCH_simnet.json);
   `--kernels-only` runs just the Bechamel kernel suite (the fast way to
   regenerate the committed BENCH_kernels.json);
   `--smoke` runs only the fast packet-engine allocation assertions and
   exits — the @bench-smoke dune alias. *)

let default = Fluid.Params.default

let big =
  Fluid.Params.with_buffer default (2. *. Fluid.Criterion.required_buffer default)

(* ------------------------------------------------------------------ *)
(* Part 1: figure regeneration                                         *)
(* ------------------------------------------------------------------ *)

(* Wall clock, not [Sys.time]: CPU time over-reports as soon as the
   figures run on multiple domains. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let render_figures figs =
  String.concat ""
    (List.map
       (fun (id, text) ->
         Printf.sprintf "################ %s ################\n%s\n" id text)
       figs)

let run_figures ~jobs out =
  let jobs =
    match jobs with Some j -> j | None -> Parallel.Pool.default_size ()
  in
  let figs, dt = timed (fun () -> Dcecc_core.Figures.all ~jobs ?out ()) in
  print_string (render_figures figs);
  Printf.printf "[figure regeneration took %.1f s on %d domain%s]\n\n" dt jobs
    (if jobs = 1 then "" else "s")

(* Wall clock plus the main domain's Gc.minor_words delta. In the
   parallel pass worker domains allocate on their own minor heaps, so
   the delta between the serial and parallel figures is the allocation
   the pool moved off the coordinating domain. *)
let timed_words f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0, Gc.minor_words () -. w0)

let run_compare ~jobs out =
  let jobs =
    match jobs with
    | Some j -> j
    | None -> Stdlib.max 2 (Parallel.Pool.default_size ())
  in
  let serial, dt_serial, mw_serial =
    timed_words (fun () -> Dcecc_core.Figures.all ~jobs:1 ?out ())
  in
  let parallel, dt_par, mw_par =
    timed_words (fun () -> Dcecc_core.Figures.all ~jobs ?out ())
  in
  let identical = render_figures serial = render_figures parallel in
  Printf.printf
    "################ serial vs parallel (figures) ################\n";
  Printf.printf "serial   (1 domain)  : %8.2f s  %12.0f minor words\n"
    dt_serial mw_serial;
  Printf.printf "parallel (%d domains): %8.2f s  %12.0f minor words\n" jobs
    dt_par mw_par;
  Printf.printf "speedup              : %8.2fx\n" (dt_serial /. dt_par);
  Printf.printf "minor words off main : %12.0f (%.1f%% of serial)\n"
    (mw_serial -. mw_par)
    (if mw_serial > 0. then 100. *. (mw_serial -. mw_par) /. mw_serial else 0.);
  Printf.printf "output byte-identical: %b\n\n" identical;
  if not identical then exit 1

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel performance suite (one Test.make per experiment)   *)
(* ------------------------------------------------------------------ *)

(* The RK4 substrate kernels are shared between the Bechamel suite and
   the direct allocation check below. *)
let ode_step () =
  let f _t y = [| y.(1); -.y.(0) |] in
  ignore (Numerics.Ode.step Numerics.Ode.Rk4 f 0. [| 1.; 0. |] 0.01)

let ode_ws = Numerics.Ode.workspace 2
let ode_y = [| 1.; 0. |]
let ode_dst = [| 0.; 0. |]

let ode_field (y : float array) (dst : float array) =
  dst.(0) <- y.(1);
  dst.(1) <- -.y.(0)

let ode_step_into () =
  Numerics.Ode.step_auto_into ode_ws Numerics.Ode.Rk4 ode_field ode_y 0.01
    ode_dst

(* Bechamel's OLS estimate of minor_allocated rounds tiny per-run
   footprints down to zero, so the headline zero-allocation claim is also
   checked the blunt way: a raw [Gc.minor_words] delta over a fixed
   number of runs. *)
let minor_words_per_run f =
  for _ = 1 to 100 do
    f ()
  done;
  let runs = 100_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int runs

let run_alloc_check () =
  Printf.printf
    "\nGc.minor_words delta per step: allocating rk4 step = %.1f words, \
     in-place step_auto_into = %.1f words\n"
    (minor_words_per_run ode_step)
    (minor_words_per_run ode_step_into)

(* Payload size for the SHA-256 throughput rows: large enough that the
   per-call setup vanishes, small enough for many runs per quota. The
   JSON rows carry a derived mb_per_s so the store-hash throughput claim
   is tracked directly. *)
let sha_bytes = 262144

let kernels () =
  let open Bechamel in
  (* Small deterministic kernels representative of each experiment's
     dominant computation. *)
  let fig3 () =
    (* taxonomy: classify the equilibrium of both regions *)
    ignore (Phaseplane.Singular.classify (Fluid.Linearized.jacobian default Fluid.Linearized.Increase));
    ignore (Phaseplane.Singular.classify (Fluid.Linearized.jacobian default Fluid.Linearized.Decrease))
  in
  let spiral_c = Fluid.Spiral.of_region default Fluid.Linearized.Increase in
  let fig4 () =
    ignore (Fluid.Spiral.extremum spiral_c ~x0:(-2.5e6) ~y0:5e8)
  in
  let node_c =
    Fluid.Node.of_region Dcecc_core.Figures.case4_params Fluid.Linearized.Decrease
  in
  let fig5 () = ignore (Fluid.Node.extremum node_c ~x0:1e6 ~y0:2e8) in
  let fig6 () = ignore (Fluid.Flowmap.first_overshoot default) in
  let lc_sys, _ = Dcecc_core.Figures.genuine_limit_cycle_system () in
  let lc_sec =
    Phaseplane.Poincare.line_section ~dir:Numerics.Ode.Up
      ~normal:(Numerics.Vec2.make 1. 0.1) ()
  in
  let fig7 () = ignore (Phaseplane.Poincare.return_map lc_sys lc_sec 2.0) in
  let fig8 () =
    ignore (Fluid.Flowmap.first_overshoot Dcecc_core.Figures.case2_params)
  in
  let fig9 () =
    ignore
      (Fluid.Flowmap.trace Dcecc_core.Figures.case3_params
         (Fluid.Model.start_point Dcecc_core.Figures.case3_params))
  in
  let fig10 () =
    ignore
      (Fluid.Flowmap.trace Dcecc_core.Figures.case4_params
         (Fluid.Model.start_point Dcecc_core.Figures.case4_params))
  in
  let t1 () = ignore (Fluid.Criterion.required_buffer default) in
  let v1 () =
    (* one millisecond of packet simulation at the validation parameters *)
    let p = Dcecc_core.Compare.validation_params in
    let cfg =
      {
        (Simnet.Runner.default_config ~t_end:1e-3 ~sample_dt:1e-4 p) with
        Simnet.Runner.enable_pause = false;
      }
    in
    ignore (Simnet.Runner.run cfg)
  in
  let v2 () =
    ignore (Control.Linear_baseline.analyze (Fluid.Params.loop_params default))
  in
  let a1 () = ignore (Fluid.Transient.measure ~horizon:1e-3 big) in
  let a2 () = ignore (Fluid.Delayed.simulate ~t_end:2e-3 ~tau:2e-6 big) in
  let a3 () =
    let sys = Fluid.Linearized.system default in
    ignore
      (Phaseplane.Trajectory.integrate
         ~solver:(Phaseplane.Trajectory.Fixed (Numerics.Ode.Rk4, 1e-6))
         ~t_max:5e-4 sys
         (Fluid.Model.start_point default))
  in
  let p1 () =
    let p = Fluid.Params.with_buffer default 15e6 in
    ignore (Simnet.Fera.run (Simnet.Fera.default_config ~t_end:2e-3 p))
  in
  let p2 () =
    ignore
      (Fluid.Aimd_fairness.iterate
         (Fluid.Aimd_fairness.Aimd { increase = 1e8; decrease = 0.2 })
         ~capacity:10e9 ~n:500
         { Fluid.Aimd_fairness.r1 = 9e9; r2 = 1e9 })
  in
  let m1 () =
    let p = Fluid.Params.with_buffer default 15e6 in
    ignore
      (Simnet.Multihop.run (Simnet.Multihop.default_config ~t_end:2e-3 p))
  in
  let b1 () =
    ignore (Fluid.Safe_region.classify default ~q:1e6 ~r:2e8)
  in
  let w1 () =
    let wl = Simnet.Workload.poisson ~id:0 ~mean_rate:2e9 ~seed:7 in
    let e = Simnet.Engine.create () in
    let count = ref 0 in
    Simnet.Workload.start wl e ~sink:(fun _e _p -> incr count);
    Simnet.Engine.run ~until:1e-3 e
  in
  (* substrate micro-kernels for the ablation notes: [ode_step] is the
     historical allocating step, [ode_step_into] the in-place variant
     (same math bit-for-bit, preallocated workspace, autonomous field —
     zero minor-heap allocation per step) *)
  let nonlinear_excursion () =
    ignore (Fluid.Stability.first_excursion ~t_max:1e-3 big)
  in
  (* RCP stepper kernels: the Smooth_fast right-hand sides of both
     literature variants driven by the in-place RK4 step — the exact
     allocation-free path RCP portraits and refine traces ride — plus
     one full clamped fluid trace. *)
  let rcp_ws = Numerics.Ode.workspace 2 in
  let rcp_y = [| 1e5; -1e8 |] in
  let rcp_dst = [| 0.; 0. |] in
  let rcp_rhs_ac =
    Phaseplane.System.to_auto (Fluid.Rcp.system (Fluid.Rcp.make default))
  in
  let rcp_rhs_load =
    Phaseplane.System.to_auto
      (Fluid.Rcp.system (Fluid.Rcp.make ~variant:Fluid.Rcp.By_load default))
  in
  let rcp_step_ac () =
    Numerics.Ode.step_auto_into rcp_ws Numerics.Ode.Rk4 rcp_rhs_ac rcp_y 1e-6
      rcp_dst
  in
  let rcp_step_load () =
    Numerics.Ode.step_auto_into rcp_ws Numerics.Ode.Rk4 rcp_rhs_load rcp_y
      1e-6 rcp_dst
  in
  let rcp_fluid () =
    ignore (Fluid.Rcp.simulate ~t_end:1e-3 (Fluid.Rcp.make default))
  in
  let sha_payload = String.init sha_bytes (fun i -> Char.chr (i land 0xff)) in
  let sha256 () = ignore (Store.Key.sha256_hex sha_payload : string) in
  let sha256_ref () =
    ignore (Store.Key.sha256_reference sha_payload : string)
  in
  Test.make_grouped ~name:"dcecc"
    [
      Test.make ~name:"fig3_taxonomy" (Staged.stage fig3);
      Test.make ~name:"fig4_spiral" (Staged.stage fig4);
      Test.make ~name:"fig5_node" (Staged.stage fig5);
      Test.make ~name:"fig6_case1" (Staged.stage fig6);
      Test.make ~name:"fig7_limit_cycle" (Staged.stage fig7);
      Test.make ~name:"fig8_case2" (Staged.stage fig8);
      Test.make ~name:"fig9_case3" (Staged.stage fig9);
      Test.make ~name:"fig10_case4" (Staged.stage fig10);
      Test.make ~name:"t1_criterion" (Staged.stage t1);
      Test.make ~name:"v1_fluid_vs_packet" (Staged.stage v1);
      Test.make ~name:"v2_linear_vs_strong" (Staged.stage v2);
      Test.make ~name:"a1_transient_sampling" (Staged.stage a1);
      Test.make ~name:"a2_delay_margin" (Staged.stage a2);
      Test.make ~name:"a3_solver_ablation" (Staged.stage a3);
      Test.make ~name:"p1_paradigms" (Staged.stage p1);
      Test.make ~name:"p2_aimd_fairness" (Staged.stage p2);
      Test.make ~name:"w1_cross_traffic" (Staged.stage w1);
      Test.make ~name:"b1_safe_region" (Staged.stage b1);
      Test.make ~name:"m1_multihop" (Staged.stage m1);
      Test.make ~name:"kernel_rk4_step" (Staged.stage ode_step);
      Test.make ~name:"kernel_rk4_step_into" (Staged.stage ode_step_into);
      Test.make ~name:"kernel_rcp_step_into" (Staged.stage rcp_step_ac);
      Test.make ~name:"kernel_rcp_step_into_by_load"
        (Staged.stage rcp_step_load);
      Test.make ~name:"r1_rcp_fluid" (Staged.stage rcp_fluid);
      Test.make ~name:"kernel_nonlinear_excursion"
        (Staged.stage nonlinear_excursion);
      Test.make ~name:"store_sha256_256k" (Staged.stage sha256);
      Test.make ~name:"store_sha256_ref_256k" (Staged.stage sha256_ref);
    ]

type estimate = {
  name : string;
  time_ns : float;
  minor_words : float;
  verdict_evals : float option;
      (* adaptive-refinement rows: logical verdict evaluations spent *)
}

(* Derived throughput for the fixed-payload hash rows.
   bytes / (ns / 1e9) / 1e6 = bytes / ns * 1e3 MB/s. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let sha_mb_per_s e =
  if contains e.name "sha256" && e.time_ns > 0. then
    Some (float_of_int sha_bytes /. e.time_ns *. 1e3)
  else None

(* Adaptive boundary refinement vs the dense raster it replaces: trace
   the strong-stability safe region's boundary with the quadtree +
   marching-squares engine and evaluate the full corner lattice at the
   identical fine resolution. Single timed runs (the safe-region verdict
   is a front integration, far above Bechamel's noise floor); the
   headline column is verdict_evals — boundary-length versus raster-area
   cost — which is exactly reproducible, unlike wall time. *)
let refine_coarse = 8
let refine_levels = 5

let refine_rows () =
  let p = default in
  let n = refine_coarse * (1 lsl refine_levels) in
  let t, adaptive_s =
    timed (fun () ->
        Refine.Safe_plane.trace
          ~coarse:(refine_coarse, refine_coarse)
          ~levels:refine_levels p)
  in
  let (_, dense_evals), dense_s =
    timed (fun () ->
        Refine.Engine.dense_mixed_cells
          (Refine.Safe_plane.domain p)
          ~nx:n ~ny:n
          (Refine.Safe_plane.verdicts p))
  in
  [
    {
      name = "refine_safe_region_adaptive";
      time_ns = adaptive_s *. 1e9;
      minor_words = nan;
      verdict_evals = Some (float_of_int t.Refine.Engine.evaluations);
    };
    {
      name = "refine_safe_region_dense";
      time_ns = dense_s *. 1e9;
      minor_words = nan;
      verdict_evals = Some (float_of_int dense_evals);
    };
  ]

let estimates_of instance raw =
  let open Bechamel in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  Hashtbl.fold
    (fun name v acc ->
      let est =
        match Analyze.OLS.estimates v with
        | Some (e :: _) -> e
        | Some [] | None -> nan
      in
      (name, est) :: acc)
    results []

let run_perf () =
  let open Bechamel in
  Printf.printf "################ performance (Bechamel) ################\n";
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.2) ~kde:None ~stabilize:false
      ()
  in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ minor_allocated; monotonic_clock ]
      (kernels ())
  in
  let times = estimates_of Toolkit.Instance.monotonic_clock raw in
  let words = estimates_of Toolkit.Instance.minor_allocated raw in
  let rows =
    List.sort compare
      (List.map
         (fun (name, t) ->
           let mw =
             match List.assoc_opt name words with Some w -> w | None -> nan
           in
           { name; time_ns = t; minor_words = mw; verdict_evals = None })
         times)
    @ refine_rows ()
  in
  let fmt_time ns =
    if Float.is_nan ns then "n/a"
    else if ns >= 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
    else Printf.sprintf "%.1f ns" ns
  in
  let fmt_words w =
    if Float.is_nan w then "n/a" else Printf.sprintf "%.1f" w
  in
  Report.Table.print
    ~headers:[ "experiment kernel"; "time per run"; "minor words/run" ]
    ~rows:
      (List.map
         (fun e -> [ e.name; fmt_time e.time_ns; fmt_words e.minor_words ])
         rows);
  List.iter
    (fun e ->
      match sha_mb_per_s e with
      | Some mb -> Printf.printf "%s throughput: %.1f MB/s\n" e.name mb
      | None -> ())
    rows;
  List.iter
    (fun e ->
      match e.verdict_evals with
      | Some v -> Printf.printf "%s: %.0f verdict evaluations\n" e.name v
      | None -> ())
    rows;
  rows

(* JSON writer over the shared fragments in [Telemetry.Json]. *)
let write_json path rows =
  let module J = Telemetry.Json in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n  \"kernels\": [\n";
      List.iteri
        (fun i e ->
          let cells =
            [
              ("name", J.str e.name);
              ("time_ns_per_run", J.float e.time_ns);
              ("minor_words_per_run", J.float e.minor_words);
            ]
            @ (match sha_mb_per_s e with
              | Some mb -> [ ("mb_per_s", J.float mb) ]
              | None -> [])
            @
            match e.verdict_evals with
            | Some v -> [ ("verdict_evals", J.float v) ]
            | None -> []
          in
          Printf.fprintf oc "    %s%s\n" (J.obj cells)
            (if i = List.length rows - 1 then "" else ","))
        rows;
      output_string oc "  ]\n}\n");
  Printf.printf "\nwrote %s\n" path

let () =
  let args = Array.to_list Sys.argv in
  let has f = List.mem f args in
  let opt name =
    let rec find = function
      | flag :: v :: _ when flag = name -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt in
  if has "--smoke" then begin
    Simnet_bench.smoke ();
    exit 0
  end;
  if has "--simnet-only" then begin
    let json = opt "--simnet-json" in
    ignore (Simnet_bench.run ?json () : Simnet_bench.row list);
    exit 0
  end;
  let out = opt "--out" in
  let json = opt "--json" in
  let simnet_json = opt "--simnet-json" in
  (* reject a bad --json destination up front rather than after the
     multi-minute perf run *)
  (match json with
  | Some path -> (
      match open_out_gen [ Open_append; Open_creat ] 0o644 path with
      | oc -> close_out oc
      | exception Sys_error msg -> fail "bench: cannot write --json %s" msg)
  | None -> ());
  (match simnet_json with
  | Some path -> (
      match open_out_gen [ Open_append; Open_creat ] 0o644 path with
      | oc -> close_out oc
      | exception Sys_error msg ->
          fail "bench: cannot write --simnet-json %s" msg)
  | None -> ());
  if has "--kernels-only" then begin
    let rows = run_perf () in
    run_alloc_check ();
    (match json with Some path -> write_json path rows | None -> ());
    exit 0
  end;
  let jobs =
    if has "--serial" then Some 1
    else
      match opt "--jobs" with
      | None -> None
      | Some v -> (
          match int_of_string_opt v with
          | Some j when j >= 1 -> Some j
          | Some _ | None ->
              fail "bench: --jobs expects a positive integer, got %S" v)
  in
  if has "--compare" then run_compare ~jobs out
  else if not (has "--perf-only") then run_figures ~jobs out;
  if not (has "--figures-only") && not (has "--compare") then begin
    let rows = run_perf () in
    run_alloc_check ();
    (match json with Some path -> write_json path rows | None -> ());
    ignore (Simnet_bench.run ?json:simnet_json () : Simnet_bench.row list)
  end
