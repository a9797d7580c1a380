(* Per-layer figures from a traced pass's spans. *)

type agg = { count : int; total : float; words : float }

let zero = { count = 0; total = 0.; words = 0. }

let by_name spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let a = Option.value ~default:zero (Hashtbl.find_opt tbl s.Trace.name) in
      Hashtbl.replace tbl s.Trace.name
        {
          count = a.count + 1;
          total = a.total +. Trace.dur s;
          words = a.words +. s.Trace.words;
        })
    spans;
  fun name -> Option.value ~default:zero (Hashtbl.find_opt tbl name)

let per a scale = if a.count = 0 then 0. else scale *. a.total /. float_of_int a.count

(* Self time per layer as a share of the traced wall time, the check
   that the attributed layers account for the untraced wall time
   within 10% (an output check: a run that misses it fails), and the
   tracing overhead. [untraced] and [traced] hold the wall times of the
   untraced and traced cycles (or passes), round by round; the i-th
   root span is the i-th traced one. The check and the overhead are
   medians of per-round ratios, so a drift in the machine's speed
   between rounds cancels. *)
let report_trace r ~spans ~untraced ~traced =
  let roots =
    Array.of_list (List.filter (fun s -> s.Trace.parent = 0) spans)
  in
  let n = Array.length roots in
  Result.check r "one root span per traced round" (n = Array.length untraced);
  let root_total = Array.fold_left (fun a s -> a +. Trace.dur s) 0. roots in
  let selfs = Trace.self_times spans in
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.Trace.id s) spans;
  let root_of = Hashtbl.create 4096 in
  let rec root s =
    match Hashtbl.find_opt root_of s.Trace.id with
    | Some x -> x
    | None ->
        let x =
          match Hashtbl.find_opt by_id s.Trace.parent with
          | None -> s.Trace.id
          | Some p -> root p
        in
        Hashtbl.replace root_of s.Trace.id x;
        x
  in
  let layer_self = Hashtbl.create 16 and attributed = Hashtbl.create 64 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun (s, t) ->
      add layer_self s.Trace.layer t;
      if s.Trace.layer <> "bench" then add attributed (root s) t)
    selfs;
  List.iter
    (fun l ->
      Result.layer r
        ("layer." ^ l ^ ".self_frac")
        (Option.value ~default:0. (Hashtbl.find_opt layer_self l) /. root_total)
        "fraction" n)
    (Metrics.layers @ [ "bench" ]);
  let k = min n (Array.length untraced) in
  let per_round f = Pstats.median (Array.init k f) in
  let ratio =
    per_round (fun i ->
        Option.value ~default:0. (Hashtbl.find_opt attributed roots.(i).Trace.id)
        /. untraced.(i))
  in
  Result.layer r "trace.layer_sum_ratio" ratio "fraction" n;
  Result.check r
    (Printf.sprintf
       "layer self times sum to the untraced wall time within 10%% (%.3f)"
       ratio)
    (Float.abs (ratio -. 1.) <= 0.1);
  Result.layer r "trace.overhead_frac"
    (per_round (fun i -> (traced.(i) -. untraced.(i)) /. untraced.(i)))
    "fraction" n;
  Result.detail r "trace.untraced_wall_ms" (1e3 *. Pstats.median untraced) "ms" n;
  Result.detail r "trace.traced_wall_ms" (1e3 *. Pstats.median traced) "ms" n;
  Result.detail r "trace.spans" (float_of_int (List.length spans)) "count" 1
