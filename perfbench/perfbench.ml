(* perfbench — the repository's benchmark (see BENCHMARK.json).

     perfbench run --workload sweep|analysis|serve-mix --seed N
                   --seconds S --trace 0|1 [--work DIR] [--serve-exe PATH]
     perfbench prepare --workload W --seed N --seconds S --out FILE
     perfbench setup --workload sweep|analysis --input FILE [--store DIR]
     perfbench catalog
     perfbench calib --samples N
     perfbench replica-daemon --socket PATH --store DIR --spans FILE

   [run] prints a metric table, one JSON detail line, and as its last
   line the result object {correct, attempted, failed, metrics}: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. It exits 1 when any output check failed. [prepare]
   writes a workload's generated inputs (the spec, the parameter point
   or the request schedule); [run] starts it in a child process before
   timing the program's set-up. [setup] is that set-up, run as a fresh
   process (see {!setup_only}). [catalog] prints every metric with its
   unit and, for a per-layer metric, its workload and the end-to-end
   metric it should move. [calib] and [replica-daemon] are the child
   processes of {!Calib} and of the serve-mix traced pass. *)

(* set-ups timed before the workload starts; more follow between its
   rounds (see {!Util.setup_times}) *)
let setup_first = 8

let input_file work wl = Filename.concat (Filename.concat work "inputs") (wl ^ ".txt")

let prepare ~workload ~seed ~seconds ~out =
  Util.mkdir_p (Filename.dirname out);
  let text =
    match workload with
    | "sweep" -> Fabric.Spec.encode (Sweep_input.make ~seed)
    | "analysis" ->
        Simnet.Scenario.encode (Simnet.Scenario.bcn (Wl_analysis.params ~seed))
    | "serve-mix" ->
        Schedule.to_text ~seed (Schedule.make ~seconds:(0.8 *. seconds) ~seed ())
    | w -> failwith ("unknown workload " ^ w)
  in
  Util.write_file out text

(* A fresh process generates the workload's inputs from the seed and
   writes them; that is the benchmark's work, not the program's, and is
   not timed. Returns the input file. *)
let prepare_inputs ~work ~workload ~seed ~seconds =
  let file = input_file work workload in
  if
    not
      (Util.run_child Sys.executable_name
         [| "prepare"; "--workload"; workload; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" seconds; "--out"; file |])
  then failwith "prepare failed";
  file

(* What the program does before a workload's first timed operation, as
   a fresh process of it does it: start (runtime and every linked
   library's initialisation), decode the input, and for sweep open a
   fresh store. [perfbench setup] runs it and exits. *)
let setup_only ~workload ~input ~store =
  let text = Util.read_file input in
  match (workload, store) with
  | "sweep", Some dir ->
      ignore (Fabric.Spec.decode_exn text : Fabric.Spec.t);
      ignore (Store.Cache.open_ ~dir : Store.Cache.t)
  | "analysis", None -> ignore (Simnet.Scenario.decode_exn text : Simnet.Scenario.t)
  | _ -> failwith ("setup: no set-up for workload " ^ workload)

let setup_child ?store ~workload input =
  let store = match store with Some d -> [| "--store"; d |] | None -> [||] in
  if
    not
      (Util.run_child Sys.executable_name
         (Array.append [| "setup"; "--workload"; workload; "--input"; input |] store))
  then failwith "setup failed"

let metadata r ~work ~seed ~trace =
  let open Telemetry.Json in
  Result.meta r "seed" (int seed);
  Result.meta r "trace" (bool trace);
  Result.meta r "nproc" (int (Domain.recommended_domain_count ()));
  Result.meta r "ocaml" (str Sys.ocaml_version);
  Result.meta r "git_rev"
    (str (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_REV")));
  Result.meta r "store_fs" (str (Util.fs_type work));
  (* whether run.py could mark the serve stores' directory chattr +T
     (see Wl_serve.fresh_store) *)
  Result.meta r "stores_topdir"
    (str (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_STORES_TOPDIR")))

let run ~workload ~seed ~seconds ~trace ~work ~serve_exe =
  Util.mkdir_p work;
  let r = Result.create workload in
  metadata r ~work ~seed ~trace;
  let self_rss () = Result.e2e r "peak_rss_mb" (Util.peak_rss_mb "self") "MB" 1 in
  let spans =
    match workload with
    | "sweep" ->
        let input = prepare_inputs ~work ~workload ~seed ~seconds in
        let stores = Filename.concat work "sweep-setup-stores" in
        let setup () =
          let store = Util.fresh_dir ~dir:stores "setup" in
          Util.time_setup (fun () -> setup_child ~store ~workload input)
        in
        for _ = 1 to setup_first do setup () done;
        let spec = Fabric.Spec.decode_exn (Util.read_file input) in
        let spans = Wl_sweep.run ~work ~seed ~seconds ~trace ~between:setup ~spec r in
        self_rss ();
        spans
    | "analysis" ->
        let input = prepare_inputs ~work ~workload ~seed ~seconds in
        let setup () = Util.time_setup (fun () -> setup_child ~workload input) in
        for _ = 1 to setup_first do setup () done;
        let params =
          (Simnet.Scenario.decode_exn (Util.read_file input)).Simnet.Scenario.params
        in
        (* a round is a 2.7 s cycle: three set-ups each *)
        let between () = for _ = 1 to 3 do setup () done in
        let spans = Wl_analysis.run ~work ~seed ~seconds ~trace ~between ~params r in
        self_rss ();
        spans
    | "serve-mix" ->
        let input = prepare_inputs ~work ~workload ~seed ~seconds in
        Wl_serve.run ~work ~seed ~seconds ~trace ~serve_exe ~setup_first ~input r
    | w -> failwith ("unknown workload " ^ w)
  in
  (* sweep and analysis sample the calibration kernel; serve-mix does
     not (see Metrics) *)
  let scale = if !Calib.samples = [] then Fun.id else Calib.scale in
  if !Calib.samples <> [] then
    Result.detail r "calib.kernel_ms" (Calib.median_ms ()) "ms"
      (List.length !Calib.samples);
  let setup = Pstats.median (Array.of_list !Util.setup_times) in
  let n_setup = List.length !Util.setup_times in
  Result.detail r "setup_raw_s" setup "s" n_setup;
  Result.e2e r "setup_s" (scale setup) "s" n_setup;
  List.iter
    (fun (p : Result.metric) ->
      Result.detail r (p.name ^ "_raw_ms") p.value "ms" p.samples;
      Result.e2e r p.name (scale p.value) "ref_ms" p.samples)
    (List.rev r.Result.phases);
  (* a traced run names every per-layer metric; those of other
     workloads read 0 over 0 samples *)
  if trace then
    List.iter
      (fun (name, unit_, _, _) ->
        if not (List.exists (fun m -> m.Result.name = name) r.Result.layer) then
          Result.layer r name 0. unit_ 0)
      Metrics.per_layer;
  Result.detail r "failed_frac"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    "fraction" r.attempted;
  let tag = Printf.sprintf "%s-seed%d-trace%d" workload seed (Bool.to_int trace) in
  let results = Filename.concat work "results" in
  Util.mkdir_p results;
  Util.write_file (Filename.concat results (tag ^ ".json")) (Result.full r ^ "\n");
  if trace then begin
    Util.write_file
      (Filename.concat results (tag ^ ".spans.jsonl"))
      (Trace.to_jsonl spans)
  end;
  Result.print_table r;
  print_endline (Result.full r);
  print_endline (Result.final r ~trace);
  if r.failed > 0 then 1 else 0

let catalog () =
  let open Telemetry.Json in
  print_endline
    (obj
       [
         ( "end_to_end",
           arr (List.map (fun (n, u) -> obj [ ("name", str n); ("unit", str u) ]) Metrics.e2e) );
         ( "per_layer",
           arr
             (List.map
                (fun (n, u, w, t) ->
                  obj
                    [ ("name", str n); ("unit", str u); ("workload", str w);
                      ("moves", str t) ])
                Metrics.per_layer) );
       ])

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  let usage () =
    prerr_endline
      "usage: perfbench run --workload W --seed N --seconds S --trace 0|1 \
       [--work DIR] [--serve-exe PATH]\n\
      \       perfbench prepare --workload W --seed N --seconds S --out FILE";
    exit 2
  in
  match args with
  | [ "catalog" ] -> catalog ()
  | [ "calib"; "--samples"; n ] -> Calib.child (int_of_string n)
  | [ "replica-daemon"; "--socket"; socket; "--store"; store; "--spans"; spans ] ->
      Replica_daemon.run ~socket ~store ~spans_out:spans
  | cmd :: rest -> (
      let o = try opts [] rest with Failure _ -> usage () in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let get_int k =
        match int_of_string_opt (get k) with Some n -> n | None -> usage ()
      in
      match cmd with
      | "setup" ->
          setup_only ~workload:(get "workload") ~input:(get "input")
            ~store:(List.assoc_opt "store" o)
      | "prepare" ->
          prepare ~workload:(get "workload") ~seed:(get_int "seed")
            ~seconds:(float_of_string (get "seconds")) ~out:(get "out")
      | "run" ->
          let trace =
            match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
          in
          exit
            (run ~workload:(get "workload") ~seed:(get_int "seed")
               ~seconds:(float_of_int (get_int "seconds"))
               ~trace
               ~work:(Option.value ~default:"_perfbench" (List.assoc_opt "work" o))
               ~serve_exe:
                 (Option.value ~default:"_build/default/bin/bcn_serve.exe"
                    (List.assoc_opt "serve-exe" o)))
      | _ -> usage ())
  | [] -> usage ()
