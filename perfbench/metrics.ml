(* Every metric the benchmark reports, with its unit, the workload that
   exercises it and, for a per-layer metric, the end-to-end metric it
   should move. BENCHMARK.json lists the same names and units; run.py
   refuses a result whose names or units differ from it.

   End-to-end metrics are reported by every workload. The two phase
   metrics are each workload's headline timings, in milliseconds at a
   reference machine speed:

     workload   phase_a              phase_b
     sweep      cold ms per point    merge ms per point
     analysis   figures pass         both region traces
     serve-mix  warm p50 latency     cold p50 latency

   Sweep and analysis times, and their setup_s, are CPU and memory
   bound and drift with the host's speed, so they are scaled by
   {!Calib}: between two sets of ten runs made minutes apart on a
   2-vCPU VM the kernel moved +15-22%, raw set-up times +13-14% and
   scaled ones 0 to -4%. Serve-mix figures enter unscaled: they did
   not follow the kernel (scaling widened the ten-run spread of warm
   p50 from 9% to 20%, of cold p50 from 15% to 20%, of set-up from 20%
   to 29%), though they drifted with the host too (+24% between the
   two sets).

   The detail line repeats them raw, under descriptive names
   (sweep.cold_points_per_s, analysis.figures_s, serve.warm_p50_ms,
   ...), with sample counts, beside secondary timings that are too
   noisy on a shared host to gate a change (serve.warm_p99_ms,
   serve.cold_p95_ms, sweep.warm_rerun_ms, analysis.gains_plane_ms,
   ...).

   A traced run reports every per-layer metric; one that belongs to
   another workload reads 0 with 0 samples (that workload's layers did
   no such work). *)

let e2e =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("phase_a", "ref_ms");
    ("phase_b", "ref_ms");
  ]

let sweep_classes = [ "bcn"; "bcn-fault"; "bcn-trace"; "e2cm"; "fera"; "multihop"; "rcp" ]

let figure_ids =
  [
    "fig3_taxonomy"; "fig4_spiral"; "fig5_node"; "fig6_case1";
    "fig7_limit_cycle"; "fig8_case2"; "fig9_case3"; "fig10_case4";
    "t1_criterion"; "v1_fluid_vs_packet"; "v2_linear_vs_strong";
    "a1_transient_sampling"; "a2_delay_margin"; "a3_solver_ablation";
    "p1_paradigms"; "p2_aimd_fairness"; "w1_cross_traffic";
    "b1_safe_region"; "m1_multihop";
  ]

let serve_kinds = [ "run"; "sweep"; "margin"; "region"; "batch" ]

(* The library layers some workload's spans are charged to. The spans
   sit around the public calls the benchmark makes, so [numerics],
   [phaseplane] and [control], which are reached only from inside
   figure generators and verdict backends (charged to [core] and
   [fluid]), get no self time of their own. *)
let layers =
  [
    "fluid"; "refine"; "core"; "simnet"; "faultnet"; "store"; "fabric";
    "serve"; "parallel";
  ]

(* (name, unit, workload, target end-to-end metric) *)
let per_layer =
  let sweep target = List.map (fun (n, u) -> (n, u, "sweep", target)) in
  let analysis target = List.map (fun (n, u) -> (n, u, "analysis", target)) in
  let serve target = List.map (fun (n, u) -> (n, u, "serve-mix", target)) in
  List.concat
    [
      sweep "phase_a"
        ([ ("scenario.encode_us", "us"); ("store.key_us", "us") ]
        @ List.concat_map
            (fun c ->
              [
                ("simnet." ^ c ^ ".us_per_point", "us");
                ("simnet." ^ c ^ ".minor_words_per_point", "words");
              ])
            sweep_classes
        @ [
            ("simnet.bcn.events_per_s", "1/s");
            ("simnet.rcp.events_per_s", "1/s");
            ("store.put_us_per_point", "us");
            ("store.bytes_per_point", "bytes");
            ("store.sha256_mb_per_s", "MB/s");
            ("fabric.lease_us_per_range", "us");
            ("parallel.busy_frac", "fraction");
            ("gc.minor_words_per_point", "words");
          ]);
      sweep "phase_b"
        [
          ("store.find_us_per_point", "us");
          ("store.find_mb_per_s", "MB/s");
          ("fabric.render_us_per_point", "us");
        ];
      analysis "phase_a"
        (List.concat_map
           (fun id ->
             [ ("figures." ^ id ^ ".ms", "ms");
               ("figures." ^ id ^ ".minor_words", "words") ])
           figure_ids);
      analysis "phase_b"
        [
          ("refine.safe.evaluations", "count");
          ("refine.safe.us_per_eval", "us");
          ("refine.gains.evaluations", "count");
          ("refine.gains.us_per_eval", "us");
        ];
      serve "phase_a"
        [
          ("serve.parse_us", "us");
          ("serve.key_us", "us");
          ("store.find_small_us", "us");
          ("serve.encode_us", "us");
        ];
      serve "phase_b"
        (List.map (fun k -> ("serve.execute_ms." ^ k, "ms")) serve_kinds
        @ [ ("serve.queue_wait_ms", "ms") ]);
      serve "phase_b"
        [
          ("serve.executed", "count");
          ("serve.dedup_joined", "count");
          ("store.hits", "count");
          ("store.misses", "count");
          ("loadgen.late_p99_ms", "ms");
          ("loadgen.sent", "count");
        ];
      (* every workload: where its traced wall time went, and what
         tracing cost *)
      List.map
        (fun l -> ("layer." ^ l ^ ".self_frac", "fraction", "all", "all"))
        (layers @ [ "bench" ])
      @ [
          ("trace.layer_sum_ratio", "fraction", "all", "all");
          ("trace.overhead_frac", "fraction", "all", "all");
        ];
    ]
