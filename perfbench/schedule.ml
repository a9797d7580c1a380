(* The serve-mix request schedule: open loop, fixed rate, drawn from the
   seed.

   Entries are due every [1 / rate] seconds for [duration] seconds,
   whatever the daemon's speed. The class counts are fixed shares of
   the entry count, so every seed asks for the same work; the seed
   picks their order, the scenario seeds, and which warm key each warm
   entry repeats. Classes:
   - warm: a repeat of one of the pre-warmed requests, which span the
     run / sweep / margin / region / batch kinds;
   - cold run: a BCN run no earlier request asked for. Cold runs use
     deterministic sampling, so each costs the same and the seed only
     makes its key fresh (Bernoulli runs split into a fast and a slow
     mode by seed, and a median sitting between the two would swing
     from run to run);
   - cold margin: an occasional fresh resilience-margin request;
   - dedup: a fresh BCN run sent twice in one write, on the second
     connection, so the daemon shares one computation between them. *)

(* The rate and the shares are assumptions: the repository records no
   bcn_serve traffic to derive them from. Revise them when real daemon
   or fabric usage is recorded. The reasoning:
   - rate: high enough that a run's timed window (19 of the 20 s
     schedule of a 25 s run) gives warm p99 and cold p95 their ten
     samples beyond several times over (about 3800 warm and 1200 cold
     replies), low enough that the daemon's worker lane stays far from
     saturation (the run reports its busy fraction as
     serve.worker_busy_frac: 0.02 to 0.03 on a 2-vCPU VM), so the open
     loop measures latency, not queueing;
   - 80% warm: a memoising service in steady state mostly answers
     repeats; the warm path is what the daemon's event loop and small
     store reads cost;
   - 12% cold runs and 7% dedup pairs: enough cold replies for the
     cold percentiles (the pairs also exercise in-flight dedup);
   - 1% cold margins: a margin costs about ten runs, so it is kept
     rare enough to perturb the cold queue without dominating it. *)
let rate = 250.
let duration = 8.
let warm_share = 0.80
let cold_run_share = 0.12
let cold_margin_share = 0.01
(* the remainder of the entries are dedup pairs *)

type cls = Warm of int | Cold_run | Cold_margin | Dedup

type entry = {
  due : float;  (** seconds after the schedule starts *)
  cls : cls;
  conn : int;  (** 0 or 1 *)
  lines : string list;  (** request lines, newline-terminated *)
  ids : int list;  (** their request ids *)
}

let p0 = Fluid.Params.default

let run_scenario seed =
  Simnet.Scenario.with_seed
    (Simnet.Scenario.bcn ~t_end:5e-3 ~sample_dt:1e-3
       ~sampling:Simnet.Scenario.Bernoulli p0)
    seed

let cold_scenario seed =
  Simnet.Scenario.with_seed
    (Simnet.Scenario.bcn ~t_end:5e-3 ~sample_dt:1e-3 p0)
    seed

let margin seed =
  Serve.Tasks.Margin
    {
      axes = [ "bcn-loss" ];
      flap_period = 2e-3;
      flap_duty = 0.5;
      t_end = 2e-3;
      transient = None;
      iters = Some 2;
      seed;
    }

(* The pre-warmed key set: every computable kind. *)
let warm_requests ~seed =
  let s k = (seed * 101) + k in
  [|
    Serve.Tasks.Run (run_scenario (s 1));
    Serve.Tasks.Run (run_scenario (s 2));
    Serve.Tasks.Run (run_scenario (s 3));
    Serve.Tasks.Run
      (Simnet.Scenario.with_seed
         (Simnet.Scenario.e2cm ~t_end:5e-3 ~sample_dt:1e-3 p0)
         (s 4));
    Serve.Tasks.Run
      (Simnet.Scenario.with_seed
         (Simnet.Scenario.rcp ~t_end:5e-3 ~sample_dt:1e-3 p0)
         (s 5));
    Serve.Tasks.Sweep
      { param = "gi"; lo = 1.; hi = 4.; steps = 3; log_scale = false; buffer = 15e6 };
    Serve.Tasks.Sweep
      { param = "ru"; lo = 4e6; hi = 16e6; steps = 3; log_scale = false; buffer = 15e6 };
    margin (s 6);
    Serve.Tasks.Region
      {
        param = "gi"; lo = 0.5; hi = 8.; param2 = "gd"; lo2 = 2e-3;
        hi2 = 32e-3; buffer = 15e6; coarse = 4; levels = 1;
      };
    Serve.Tasks.Batch
      {
        spec =
          Fabric.Spec.Seeds
            { base = run_scenario 0; first_seed = s 7; count = 4 };
        chunk = 2;
        as_json = false;
      };
  |]

let kind_of = function
  | Serve.Tasks.Run _ -> "run"
  | Sweep _ -> "sweep"
  | Margin _ -> "margin"
  | Region _ -> "region"
  | Batch _ -> "batch"

let line ~id req = Serve.Protocol.encode_request ~id (Serve.Protocol.Compute req)

let make ?(seconds = duration) ~seed () =
  let rng = Random.State.make [| 0x5e77e; seed |] in
  let n = int_of_float (rate *. seconds) in
  let count share = int_of_float (Float.round (share *. float_of_int n)) in
  let n_warm = count warm_share and n_cold = count cold_run_share in
  let n_margin = max 1 (count cold_margin_share) in
  let classes =
    Array.init n (fun i ->
        if i < n_warm then `Warm
        else if i < n_warm + n_cold then `Cold
        else if i < n_warm + n_cold + n_margin then `Margin
        else `Dedup)
  in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = classes.(i) in
    classes.(i) <- classes.(j);
    classes.(j) <- t
  done;
  let warm = warm_requests ~seed in
  (* fresh scenario seeds, disjoint from the warm set's *)
  let fresh = ref ((seed * 1_000_003) + 1_000_000) in
  let next_seed () =
    incr fresh;
    !fresh
  in
  let id = ref 0 in
  let next_id () =
    incr id;
    !id
  in
  Array.mapi
    (fun i c ->
      let due = float_of_int i /. rate in
      match c with
      | `Warm ->
          let k = Random.State.int rng (Array.length warm) in
          let id = next_id () in
          { due; cls = Warm k; conn = 0; lines = [ line ~id warm.(k) ]; ids = [ id ] }
      | `Cold ->
          let req = Serve.Tasks.Run (cold_scenario (next_seed ())) in
          let id = next_id () in
          { due; cls = Cold_run; conn = 0; lines = [ line ~id req ]; ids = [ id ] }
      | `Margin ->
          let id = next_id () in
          { due; cls = Cold_margin; conn = 0;
            lines = [ line ~id (margin (next_seed ())) ]; ids = [ id ] }
      | `Dedup ->
          let req = Serve.Tasks.Run (cold_scenario (next_seed ())) in
          let a = next_id () in
          let b = next_id () in
          { due; cls = Dedup; conn = 1; lines = [ line ~id:a req; line ~id:b req ];
            ids = [ a; b ] })
    classes

(* ---------- the text the generator receives ---------- *)

let cls_to_string = function
  | Warm k -> "warm:" ^ string_of_int k
  | Cold_run -> "cold"
  | Cold_margin -> "margin"
  | Dedup -> "dedup"

let cls_of_string s =
  match s with
  | "cold" -> Cold_run
  | "margin" -> Cold_margin
  | "dedup" -> Dedup
  | _ -> Scanf.sscanf s "warm:%d%!" (fun k -> Warm k)

(* One entry per line: due, class, connection, then its request lines
   (without their newlines), tab-separated. The warm key set comes
   first, one request line each. *)
let to_text ~seed sched =
  let b = Buffer.create (1 lsl 16) in
  let strip l = String.sub l 0 (String.length l - 1) in
  Array.iteri
    (fun k req -> Buffer.add_string b (Printf.sprintf "W\t%d\t%s\n" k (strip (line ~id:0 req))))
    (warm_requests ~seed);
  Array.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "%.17g\t%s\t%d\t%s\n" e.due (cls_to_string e.cls) e.conn
           (String.concat "\t" (List.map strip e.lines))))
    sched;
  Buffer.contents b

let id_of_line l =
  match Simnet.Json_read.parse l with
  | Simnet.Json_read.Jobj o -> Simnet.Json_read.get_int "request" o "id"
  | _ -> failwith "schedule: request line is not an object"

type t = { warm : string array;  (** request lines, newline-terminated *) entries : entry array }

let of_text text =
  let warm = ref [] and entries = ref [] in
  List.iter
    (fun l ->
      if l <> "" then
        match String.split_on_char '\t' l with
        | [ "W"; _; req ] -> warm := (req ^ "\n") :: !warm
        | due :: cls :: conn :: lines ->
            entries :=
              {
                due = float_of_string due;
                cls = cls_of_string cls;
                conn = int_of_string conn;
                lines = List.map (fun x -> x ^ "\n") lines;
                ids = List.map id_of_line lines;
              }
              :: !entries
        | _ -> failwith "schedule: malformed line")
    (String.split_on_char '\n' text);
  { warm = Array.of_list (List.rev !warm); entries = Array.of_list (List.rev !entries) }
