(* The sweep workload's input: one Explicit fabric spec mixing all five
   protocols, drawn from the seed.

   The counts per class, the replica counts and the fault axes are
   constants, so every seed asks for about the same amount of work; the
   seed picks the scenario seeds, the fault severities and the order of
   the points. Classes:
   - BCN summaries: Bernoulli sampling, sample period 1e-3 (objects of
     ~10 KB), every third one with 2 replicas;
   - BCN with a [Resilience.plan_of] fault plan, the three fault axes in
     turn;
   - BCN full queue traces: sample period 1e-5 (objects of ~0.4 MB);
   - E2CM, FERA, two-hop multihop and RCP points. *)

let t_end = 5e-3
let summary_dt = 1e-3
let trace_dt = 1e-5

(* (class, count) — class names are the per-layer metric keys.

   The counts are assumptions (no fabric usage is recorded in the
   repository to derive them from): BCN, the paper's protocol, has the
   most points; 24 fault plans give each of the three fault axes 8; 16
   full traces (~6.7 MB of objects per cycle) make large store writes
   and reads a real share of a cycle, which is what the store's SHA-256
   and fsync work needs to show; every other class has 16 points, so
   each per-class metric averages over 16 points a cycle. Revise them
   when real sweep usage is recorded. *)
let classes =
  [
    ("bcn", 48);
    ("bcn-fault", 24);
    ("bcn-trace", 16);
    ("e2cm", 16);
    ("fera", 16);
    ("multihop", 16);
    ("rcp", 16);
  ]

let class_of (s : Simnet.Scenario.t) =
  match s.model with
  | Simnet.Scenario.Bcn _ ->
      if s.fault <> None then "bcn-fault"
      else if s.sample_dt < summary_dt then "bcn-trace"
      else "bcn"
  | E2cm _ -> "e2cm"
  | Fera _ -> "fera"
  | Multihop _ -> "multihop"
  | Rcp _ -> "rcp"

let axes =
  [|
    Faultnet.Resilience.Bcn_loss;
    Faultnet.Resilience.Pause_loss;
    Faultnet.Resilience.Flap_depth { period = 1e-3; duty = 0.5 };
  |]

let make ~seed =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let p = Fluid.Params.default in
  let scen_seed () = Random.State.int rng 1_000_000 in
  let bernoulli dt =
    Simnet.Scenario.bcn ~t_end ~sample_dt:dt
      ~sampling:Simnet.Scenario.Bernoulli p
  in
  let one i = function
    | "bcn" ->
        let s = Simnet.Scenario.with_seed (bernoulli summary_dt) (scen_seed ()) in
        if i mod 3 = 0 then Simnet.Scenario.with_replicas s 2 else s
    | "bcn-fault" ->
        let axis = axes.(i mod Array.length axes) in
        let severity =
          (0.1 +. Random.State.float rng 0.3)
          *. Faultnet.Resilience.max_severity axis
        in
        let plan =
          Faultnet.Resilience.plan_of axis ~severity ~seed:(scen_seed ())
            ~t_end
        in
        Simnet.Scenario.with_fault
          (Simnet.Scenario.with_seed (bernoulli summary_dt) (scen_seed ()))
          plan
    | "bcn-trace" ->
        Simnet.Scenario.with_seed (bernoulli trace_dt) (scen_seed ())
    | "e2cm" ->
        Simnet.Scenario.with_seed
          (Simnet.Scenario.e2cm ~t_end ~sample_dt:summary_dt p)
          (scen_seed ())
    | "fera" ->
        Simnet.Scenario.with_seed
          (Simnet.Scenario.fera ~t_end ~sample_dt:summary_dt p)
          (scen_seed ())
    | "multihop" ->
        Simnet.Scenario.with_seed
          (Simnet.Scenario.multihop ~t_end ~sample_dt:summary_dt p)
          (scen_seed ())
    | "rcp" ->
        Simnet.Scenario.with_seed
          (Simnet.Scenario.rcp ~t_end ~sample_dt:summary_dt p)
          (scen_seed ())
    | c -> invalid_arg ("Sweep_input.make: class " ^ c)
  in
  let scenarios =
    List.concat_map (fun (c, n) -> List.init n (fun i -> one i c)) classes
  in
  (* interleave the classes so every lease range mixes protocols *)
  let a = Array.of_list scenarios in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Fabric.Spec.validate (Fabric.Spec.Explicit a)
