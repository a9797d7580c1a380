(* sweep: an in-process fabric worker over a five-protocol Explicit
   spec in a fresh store, a warm re-run, and a merge through a freshly
   opened store handle — the `bcn_fabric work` then `bcn_fabric merge`
   path.

   One cycle = fresh store -> cold Worker.run -> warm Worker.run ->
   Cache.open_ + Merge.csv. Cycles repeat until the run's time is up;
   every figure is a median over cycles. *)

(* One lane: on a 2-vCPU VM a 2-lane cold phase ran up to 2x slower
   from one run to the next (and ~25% slower over 100 cycles within a
   run, each Worker.run spawning a fresh pool), far beyond what a
   regression bound can absorb. That was measured while the benchmark
   still deleted its stores (see {!Util.fresh_dir}), which alone slowed
   the cold phase by up to 40%; two lanes have not been tried since. *)
let lanes = 1
let chunk = 16
let worker = "perfbench"

type cycle = { cold : float; warm : float; merge : float; csv : string }

let untraced_cycle ~dir spec r =
  let n = Fabric.Spec.size spec in
  let (cache, rep), cold =
    Util.time (fun () ->
        let cache = Store.Cache.open_ ~dir in
        (cache, Fabric.Worker.run ~jobs:lanes ~chunk ~worker cache spec))
  in
  Result.check r "cold worker executes every point" (rep.executed = n);
  let rep2, warm =
    Util.time (fun () -> Fabric.Worker.run ~jobs:lanes ~chunk ~worker cache spec)
  in
  Result.check r "warm worker re-run executes 0 points" (rep2.executed = 0);
  let csv, merge =
    Util.time (fun () ->
        let fresh = Store.Cache.open_ ~dir in
        Fabric.Merge.csv fresh spec)
  in
  for _ = 1 to n do
    Result.op r true
  done;
  { cold; warm; merge; csv }

(* ---------- traced replica ----------

   The same cycle, rebuilt from the layers' public functions so a span
   can sit around each call: what Worker.run does per range (lease
   claim, a pool map over the points, done marker, release) and per
   point (Cache.mem, Store.Sweep.memo_run = scenario encode + key +
   find + exec + marshal + put + unmarshal), and what Merge.csv does
   per point (key, find, unmarshal) before rendering. The warm re-run
   calls Worker.run itself. *)

module Lease = Store.Lease

let sp = Trace.span

let key_of ?req s =
  let enc = sp ?req ~layer:"simnet" "scenario.encode" (fun () ->
      Simnet.Scenario.encode s) in
  sp ?req ~layer:"store" "store.key" (fun () ->
      Store.Key.of_material ("scenario@v1\n" ^ enc))

let exec_layer cls = if cls = "bcn-fault" then "faultnet" else "simnet"

type point_obs = {
  cls : string;
  events : int;
  bytes : int;
  payload : string;
}

let traced_point cache scenarios parent i =
  sp ~req:i ~parent ~layer:"bench" "point" (fun () ->
      let s = scenarios.(i) in
      let cls = Sweep_input.class_of s in
      let key = key_of ~req:i s in
      let present = sp ~req:i ~layer:"store" "store.mem" (fun () ->
          Store.Cache.mem cache key) in
      if present then None
      else begin
        let miss = sp ~req:i ~layer:"store" "store.find.miss" (fun () ->
            Store.Cache.find cache key) in
        assert (miss = None);
        let o = sp ~req:i ~layer:(exec_layer cls) ("simnet." ^ cls) (fun () ->
            Store.Sweep.exec ~jobs:1 s) in
        let payload = sp ~req:i ~layer:"store" "store.marshal" (fun () ->
            Marshal.to_string o []) in
        sp ~req:i ~layer:"store" "store.put" (fun () ->
            Store.Cache.put cache key payload);
        let (_ : Store.Sweep.outcome) =
          sp ~req:i ~layer:"store" "store.unmarshal" (fun () ->
              Marshal.from_string payload 0)
        in
        let events =
          match o with
          | Store.Sweep.Bcn_results rs ->
              Array.fold_left (fun a x -> a + x.Simnet.Runner.events_processed) 0 rs
          | Rcp_result x -> x.Simnet.Rcp.events_processed
          | _ -> 0
        in
        Some { cls; events; bytes = String.length payload; payload }
      end)

let traced_cold ~dir spec =
  sp ~layer:"fabric" "worker.cold" (fun () ->
      let cache = sp ~layer:"store" "store.open" (fun () ->
          Store.Cache.open_ ~dir) in
      let scenarios = sp ~layer:"fabric" "spec.scenarios" (fun () ->
          Fabric.Spec.scenarios spec) in
      let points = Array.mapi (fun i s -> key_of ~req:i s) scenarios in
      let manifest = sp ~layer:"store" "store.manifest" (fun () ->
          let m = Store.Manifest.create ~points in
          Store.Manifest.save cache m;
          m) in
      let sweep = manifest.Store.Manifest.sweep_key in
      let ranges = Fabric.Spec.ranges ~total:(Array.length points) ~chunk in
      let obs =
        sp ~layer:"parallel" "pool.create" (fun () ->
            Parallel.Pool.create ~size:lanes ())
        |> fun pool ->
        Fun.protect
          ~finally:(fun () ->
            sp ~layer:"parallel" "pool.shutdown" (fun () ->
                Parallel.Pool.shutdown pool))
          (fun () ->
            Array.to_list ranges
            |> List.mapi (fun range (lo, hi) ->
                   let claimed = sp ~layer:"fabric" "fabric.lease" (fun () ->
                       (not (Lease.is_done cache ~sweep ~range))
                       && Lease.claim cache ~sweep ~range ~lo ~hi ~worker
                       && not (Lease.is_done cache ~sweep ~range)) in
                   assert claimed;
                   let idx = Array.init (hi - lo + 1) (fun k -> lo + k) in
                   let got =
                     sp ~lanes ~layer:"parallel" "range" (fun () ->
                         let parent = Trace.current () in
                         Parallel.Pool.map_array pool
                           (traced_point cache scenarios parent) idx)
                   in
                   sp ~layer:"fabric" "fabric.lease" (fun () ->
                       let complete =
                         Array.for_all (fun i -> Store.Cache.mem cache points.(i)) idx
                       in
                       if complete then Lease.mark_done cache ~sweep ~range ~worker;
                       Lease.release cache ~sweep ~range);
                   Array.to_list got)
            |> List.concat)
      in
      sp ~layer:"fabric" "fabric.lease" (fun () ->
          Array.iteri
            (fun range _ -> assert (Lease.is_done cache ~sweep ~range))
            ranges);
      (cache, List.filter_map Fun.id obs))

let traced_merge ~dir spec =
  let cache = sp ~layer:"store" "store.open" (fun () -> Store.Cache.open_ ~dir) in
  let scenarios = sp ~layer:"fabric" "spec.scenarios" (fun () ->
      Fabric.Spec.scenarios spec) in
  let outcomes =
    Array.mapi
      (fun i s ->
        let key = key_of ~req:i s in
        match sp ~req:i ~layer:"store" "store.find" (fun () ->
            Store.Cache.find cache key) with
        | None -> failwith "traced merge: point missing"
        | Some payload ->
            (sp ~req:i ~layer:"store" "store.unmarshal" (fun () ->
                 Marshal.from_string payload 0)
              : Store.Sweep.outcome))
      scenarios
  in
  sp ~layer:"fabric" "fabric.render" (fun () ->
      Fabric.Merge.csv_of spec outcomes)

let report_layers r ~spans ~obs ~payloads ~cycles ~points ~untraced ~traced =
  let g = Layers.by_name spans in
  let lay name a value unit_ = Result.layer r name value unit_ a.Layers.count in
  let us name = Layers.per (g name) 1e6 in
  lay "scenario.encode_us" (g "scenario.encode") (us "scenario.encode") "us";
  lay "store.key_us" (g "store.key") (us "store.key") "us";
  List.iter
    (fun c ->
      let a = g ("simnet." ^ c) in
      lay ("simnet." ^ c ^ ".us_per_point") a (Layers.per a 1e6) "us";
      lay ("simnet." ^ c ^ ".minor_words_per_point") a
        (if a.count = 0 then 0. else a.words /. float_of_int a.count)
        "words")
    Metrics.sweep_classes;
  let events cls =
    List.fold_left (fun acc o -> if o.cls = cls then acc + o.events else acc) 0 obs
  in
  List.iter
    (fun cls ->
      let a = g ("simnet." ^ cls) in
      lay ("simnet." ^ cls ^ ".events_per_s") a
        (float_of_int (events cls) /. a.total) "1/s")
    [ "bcn"; "rcp" ];
  lay "store.put_us_per_point" (g "store.put") (us "store.put") "us";
  let bytes = List.fold_left (fun acc o -> acc + o.bytes) 0 obs in
  let nobs = List.length obs in
  Result.layer r "store.bytes_per_point"
    (float_of_int bytes /. float_of_int nobs) "bytes" nobs;
  let hashed, sha_t =
    Util.time (fun () ->
        List.fold_left
          (fun acc p -> ignore (Store.Key.sha256_hex p); acc + String.length p)
          0 payloads)
  in
  Result.layer r "store.sha256_mb_per_s"
    (float_of_int hashed /. 1e6 /. sha_t) "MB/s" (List.length payloads);
  let n_ranges = Array.length (Fabric.Spec.ranges ~total:points ~chunk) in
  let lease = g "fabric.lease" in
  Result.layer r "fabric.lease_us_per_range"
    (1e6 *. lease.total /. float_of_int (n_ranges * cycles)) "us"
    (n_ranges * cycles);
  let point = g "point" and range = g "range" in
  Result.layer r "parallel.busy_frac"
    (point.total /. (float_of_int lanes *. range.total)) "fraction" range.count;
  Result.layer r "gc.minor_words_per_point"
    (point.words /. float_of_int point.count) "words" point.count;
  let find = g "store.find" in
  lay "store.find_us_per_point" find (Layers.per find 1e6) "us";
  (* every traced cycle finds every point once *)
  lay "store.find_mb_per_s" find (float_of_int bytes /. 1e6 /. find.total) "MB/s";
  let render = g "fabric.render" in
  Result.layer r "fabric.render_us_per_point" 
    (1e6 *. render.total /. float_of_int (cycles * points)) "us" render.count;
  Layers.report_trace r ~spans ~untraced ~traced

(* ---------- the workload ---------- *)

let traced_cycle ~dir spec r ~csv0 =
  let n = Fabric.Spec.size spec in
  let (obs, csv), wall =
    Util.time (fun () ->
        sp ~layer:"bench" "cycle" (fun () ->
            let cache, obs = traced_cold ~dir spec in
            Result.check r "traced cold replica executes every point"
              (List.length obs = n);
            let rep = sp ~layer:"fabric" "worker.warm" (fun () ->
                Fabric.Worker.run ~jobs:lanes ~chunk ~worker cache spec) in
            Result.check r "traced warm re-run executes 0 points" (rep.executed = 0);
            (obs, traced_merge ~dir spec)))
  in
  Result.check r "traced merge = untraced merge" (csv = Lazy.force csv0);
  (obs, wall)

let run ~work ~seed:_ ~seconds ~trace ~between ~spec r =
  (* each cycle in a fresh store, emptied when the cycle is done (see
     {!Util.fresh_dir}) *)
  let stores = Filename.concat work "sweep-stores" in
  let fresh cycle () =
    let dir = Util.fresh_dir ~dir:stores "cycle" in
    Fun.protect ~finally:(fun () -> Util.retire dir) (fun () -> cycle ~dir)
  in
  let n = Fabric.Spec.size spec in
  let nf = float_of_int n in
  (* reference: the cold outcomes computed without any store *)
  let reference =
    lazy
      (Fabric.Merge.csv_of spec
         (Store.Sweep.sweep ~jobs:1 (Fabric.Spec.scenarios spec)))
  in
  if trace then
    Result.check r "replica keys = Store.Key.of_scenario"
      (Array.for_all
         (fun sc -> key_of sc = Store.Key.of_scenario sc)
         (Fabric.Spec.scenarios spec));
  let cycles, traced =
    Util.repeat ~seconds ~warmup:3 ~min:3 ~calib:2 ~between
      ?traced:
        (if trace then Some (fresh (traced_cycle spec r ~csv0:reference)) else None)
      (fresh (untraced_cycle spec r))
  in
  let csv0 = cycles.(0).csv in
  Array.iter
    (fun c -> Result.check r "merged CSV identical across cycles" (c.csv = csv0))
    cycles;
  Result.check r "fresh-handle merge = Merge.csv_of cold outcomes"
    (csv0 = Lazy.force reference);
  Result.digest r "merged_csv" csv0;
  let k = Array.length cycles in
  let med f = Pstats.median (Array.map f cycles) in
  let cold = med (fun c -> c.cold) and warm = med (fun c -> c.warm)
  and merge = med (fun c -> c.merge) in
  let total = med (fun c -> c.cold +. c.warm +. c.merge) in
  Result.phase r "phase_a" (1e3 *. cold /. nf) k;
  Result.phase r "phase_b" (1e3 *. merge /. nf) k;
  Result.detail r "sweep.cold_points_per_s" (nf /. cold) "1/s" k;
  Result.detail r "sweep.merge_points_per_s" (nf /. merge) "1/s" k;
  Result.detail r "sweep.warm_rerun_ms" (1e3 *. warm) "ms" k;
  Result.detail r "sweep.cycle_ms_per_point" (1e3 *. total /. nf) "ms" k;
  Result.detail r "sweep.points" nf "count" 1;
  Result.meta r "sweep_lanes" (Telemetry.Json.int lanes);
  Result.meta r "sweep_chunk" (Telemetry.Json.int chunk);
  if trace then begin
    let spans = Trace.collect () in
    let obs = List.concat_map fst (Array.to_list traced) in
    let payloads = List.map (fun o -> o.payload) (fst traced.(0)) in
    report_layers r ~spans
      ~obs:(List.map (fun o -> { o with payload = "" }) obs)
      ~payloads ~cycles:(Array.length traced) ~points:n
      ~untraced:(Array.map (fun c -> c.cold +. c.warm +. c.merge) cycles)
      ~traced:(Array.map snd traced);
    spans
  end
  else []
