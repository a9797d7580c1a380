(* analysis: every figure of the paper (Figures.all ~jobs:1, writing
   its CSVs), then the adaptive safe-region and gains-plane traces at
   the `figures --adaptive` settings (coarse 8 x 8, 3 levels), with no
   store. One cycle = one figures pass + both traces; cycles repeat
   until the run's time is up and every figure is a median over
   cycles. *)

let coarse = (8, 8)
let levels = 3

(* the gains plane `figures --adaptive` traces around a parameter point *)
let gains_domain p =
  {
    Refine.Engine.x0 = 0.25 *. Fluid.Params.a p;
    x1 = 8. *. Fluid.Params.a p;
    y0 = 0.25 *. Fluid.Params.b p;
    y1 = 8. *. Fluid.Params.b p;
  }

(* The seed moves the traced parameter point by a fraction of a percent
   in q0: a different boundary for the same amount of work. *)
let params ~seed =
  let rng = Random.State.make [| 0xa7a1; seed |] in
  let p = Fluid.Params.default in
  Fluid.Params.with_q0 p
    (p.Fluid.Params.q0 *. (1. +. Random.State.float rng 0.01 -. 0.005))

let generators : (string * (?out:string -> unit -> string)) list =
  let open Dcecc_core.Figures in
  [
    ("fig3_taxonomy", fig3_taxonomy);
    ("fig4_spiral", fig4_spiral);
    ("fig5_node", fig5_node);
    ("fig6_case1", fig6_case1);
    ("fig7_limit_cycle", fig7_limit_cycle);
    ("fig8_case2", fig8_case2);
    ("fig9_case3", fig9_case3);
    ("fig10_case4", fig10_case4);
    ("t1_criterion", t1_criterion);
    ("v1_fluid_vs_packet", v1_fluid_vs_packet);
    ("v2_linear_vs_strong", v2_linear_vs_strong);
    ("a1_transient_sampling", a1_transient_sampling);
    ("a2_delay_margin", a2_delay_margin);
    ("a3_solver_ablation", a3_solver_ablation);
    ("p1_paradigms", p1_paradigms);
    ("p2_aimd_fairness", p2_aimd_fairness);
    ("w1_cross_traffic", w1_cross_traffic);
    ("b1_safe_region", b1_safe_region);
    ("m1_multihop", m1_multihop);
  ]

type cycle = {
  figures : float;
  safe : float;
  gains : float;
  text : string;  (** every figure's text, in order *)
  regions : string;  (** both traces' evaluation counts and polylines *)
}

let render_regions (s : Refine.Engine.t) (g : Refine.Engine.t) =
  Printf.sprintf "safe evaluations=%d\n%sgains evaluations=%d\n%s"
    s.evaluations (Refine.Engine.segments_csv s) g.evaluations
    (Refine.Engine.segments_csv g)

let untraced_cycle ~out p r =
  let figs, figures =
    Util.time (fun () -> Dcecc_core.Figures.all ~jobs:1 ~out ())
  in
  List.iter (fun _ -> Result.op r true) figs;
  let s, safe =
    Util.time (fun () ->
        Refine.Safe_plane.trace ~jobs:1 ~coarse ~levels p)
  in
  let g, gains =
    Util.time (fun () ->
        Refine.Param_plane.trace ~jobs:1 ~coarse ~levels
          (Refine.Param_plane.gains p) (gains_domain p))
  in
  Result.op r true;
  Result.op r true;
  {
    figures;
    safe;
    gains;
    text = String.concat "" (List.map (fun (id, t) -> id ^ "\n" ^ t) figs);
    regions = render_regions s g;
  }

(* ---------- traced replica: one span per figure generator, and the
   verdict backend of each trace wrapped separately from the
   refinement engine around it ----------

   Each step (a figure generator, a region trace) runs twice back to
   back, once untraced and once traced, the order alternating from
   step to step. On a shared 2-vCPU VM the host's speed swung by a
   third between cycles seconds apart, so pairs of whole 2.7 s cycles
   could not tell tracing cost from host drift; pairs of steps can. *)

let sp = Trace.span

let paired_cycle ~out p =
  let first_untraced = ref false in
  let pairs = ref [] in
  let pair f =
    first_untraced := not !first_untraced;
    let run traced =
      Trace.on := traced;
      Util.time f
    in
    let (v, t), (_, u) =
      if !first_untraced then
        let u = run false in
        (run true, u)
      else
        let t = run true in
        (t, run false)
    in
    pairs := (u, t) :: !pairs;
    v
  in
  let figs =
    List.map
      (fun (id, gen) ->
        (id, pair (fun () -> sp ~layer:"core" ("figures." ^ id) (fun () -> gen ?out:(Some out) ()))))
      generators
  in
  let s =
    pair (fun () ->
        sp ~layer:"refine" "refine.safe" (fun () ->
            Refine.Engine.refine ~coarse ~levels (Refine.Safe_plane.domain p)
              (fun pts ->
                sp ~layer:"fluid" "refine.safe.verdicts" (fun () ->
                    Refine.Safe_plane.verdicts ~jobs:1 p pts))))
  in
  let apply = Refine.Param_plane.gains p in
  let g =
    pair (fun () ->
        sp ~layer:"refine" "refine.gains" (fun () ->
            Refine.Engine.refine ~coarse ~levels (gains_domain p) (fun pts ->
                sp ~layer:"fluid" "refine.gains.verdicts" (fun () ->
                    Refine.Param_plane.verdicts ~jobs:1 apply pts))))
  in
  ( ( String.concat "" (List.map (fun (id, t) -> id ^ "\n" ^ t) figs),
      render_regions s g,
      (s.evaluations, g.evaluations) ),
    List.rev !pairs )

let run ~work ~seed:_ ~seconds ~trace ~between ~params:p r =
  let out = Filename.concat work "figures-out" in
  Util.mkdir_p out;
  let traced () = paired_cycle ~out p in
  let cycles, traced =
    Util.repeat ~seconds ~warmup:1 ~min:3 ~calib:8 ~between
      ?traced:(if trace then Some traced else None)
      (fun () -> untraced_cycle ~out p r)
  in
  let c0 = cycles.(0) in
  Array.iter
    (fun c ->
      Result.check r "figure text identical across repeats" (c.text = c0.text);
      Result.check r "evaluation counts and polylines identical across repeats"
        (c.regions = c0.regions))
    cycles;
  Result.check r "Figures.all covers the 19 experiments"
    (List.length generators = List.length Metrics.figure_ids);
  Result.digest r "figures_text" c0.text;
  Result.digest r "region_traces" c0.regions;
  let k = Array.length cycles in
  let med f = Pstats.median (Array.map f cycles) in
  let figures = med (fun c -> c.figures) and safe = med (fun c -> c.safe)
  and gains = med (fun c -> c.gains) in
  let region = med (fun c -> c.safe +. c.gains) in
  let total = med (fun c -> c.figures +. c.safe +. c.gains) in
  Result.phase r "phase_a" (1e3 *. figures) k;
  Result.phase r "phase_b" (1e3 *. region) k;
  Result.detail r "analysis.figures_s" figures "s" k;
  Result.detail r "analysis.region_s" region "s" k;
  Result.detail r "analysis.safe_plane_ms" (1e3 *. safe) "ms" k;
  Result.detail r "analysis.gains_plane_ms" (1e3 *. gains) "ms" k;
  Result.detail r "analysis.cycle_ms" (1e3 *. total) "ms" k;
  Result.meta r "analysis_jobs" (Telemetry.Json.int 1);
  if trace then begin
    Array.iter
      (fun ((text, regions, _), _) ->
        Result.check r "traced figures = Figures.all ~jobs:1" (text = c0.text);
        Result.check r "traced refinements = Safe/Param_plane.trace"
          (regions = c0.regions))
      traced;
    let spans = Trace.collect () in
    let g = Layers.by_name spans in
    List.iter
      (fun id ->
        let a = g ("figures." ^ id) in
        Result.layer r ("figures." ^ id ^ ".ms") (Layers.per a 1e3) "ms" a.count;
        Result.layer r
          ("figures." ^ id ^ ".minor_words")
          (a.words /. float_of_int (max 1 a.count))
          "words" a.count)
      Metrics.figure_ids;
    let (_, _, (se, ge)), _ = traced.(0) in
    List.iter
      (fun (plane, ev) ->
        let a = g ("refine." ^ plane) in
        Result.layer r ("refine." ^ plane ^ ".evaluations") (float_of_int ev)
          "count" a.count;
        Result.layer r
          ("refine." ^ plane ^ ".us_per_eval")
          (1e6 *. a.total /. float_of_int (max 1 (ev * a.count)))
          "us" a.count)
      [ ("safe", se); ("gains", ge) ];
    let pairs = Array.of_list (List.concat_map snd (Array.to_list traced)) in
    Layers.report_trace r ~spans ~untraced:(Array.map fst pairs)
      ~traced:(Array.map snd pairs);
    spans
  end
  else []
