(* One run's result: counted operations, output checks, metrics with
   units and sample counts, output digests, and run metadata. *)

type metric = { name : string; value : float; unit_ : string; samples : int }

type t = {
  workload : string;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable e2e : metric list;
  mutable phases : metric list;  (** raw, in ms; {!Calib} scales them *)
  mutable layer : metric list;
  mutable detail : metric list;
  mutable digests : (string * string) list;
  mutable meta : (string * string) list;  (** rendered JSON values *)
}

let create workload =
  {
    workload;
    attempted = 0;
    failed = 0;
    failures = [];
    e2e = [];
    phases = [];
    layer = [];
    detail = [];
    digests = [];
    meta = [];
  }

(* One operation: attempted always, failed when [ok] is false. *)
let op r ?(what = "operation") ok =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if List.length r.failures < 20 then r.failures <- what :: r.failures
  end

(* Output checks count as operations, so a fast wrong answer fails. *)
let check r what ok = op r ~what:("check failed: " ^ what) ok


let m name value unit_ samples = { name; value; unit_; samples }
let e2e r name value unit_ samples = r.e2e <- m name value unit_ samples :: r.e2e
let phase r name raw_ms samples = r.phases <- m name raw_ms "ms" samples :: r.phases
let layer r name value unit_ samples =
  r.layer <- m name value unit_ samples :: r.layer
let detail r name value unit_ samples =
  r.detail <- m name value unit_ samples :: r.detail
let digest r name bytes = r.digests <- (name, Store.Key.sha256_hex bytes) :: r.digests
let meta r k v = r.meta <- (k, v) :: r.meta

let json_metric x =
  Telemetry.Json.obj
    [
      ("value", Telemetry.Json.float_full x.value);
      ("unit", Telemetry.Json.str x.unit_);
    ]

let json_metric_full x =
  Telemetry.Json.obj
    [
      ("value", Telemetry.Json.float_full x.value);
      ("unit", Telemetry.Json.str x.unit_);
      ("samples", Telemetry.Json.int x.samples);
    ]

let metrics_obj f ms =
  Telemetry.Json.obj (List.rev_map (fun x -> (x.name, f x)) ms)

(* Everything, for the results file and the detail line. *)
let full r =
  Telemetry.Json.obj
    [
      ("workload", Telemetry.Json.str r.workload);
      ("attempted", Telemetry.Json.int r.attempted);
      ("failed", Telemetry.Json.int r.failed);
      ( "failed_frac",
        Telemetry.Json.float_full
          (float_of_int r.failed /. float_of_int (max 1 r.attempted)) );
      ( "failures",
        Telemetry.Json.arr (List.rev_map Telemetry.Json.str r.failures) );
      ("meta", Telemetry.Json.obj (List.rev r.meta));
      ("end_to_end", metrics_obj json_metric_full r.e2e);
      ("per_layer", metrics_obj json_metric_full r.layer);
      ("detail", metrics_obj json_metric_full r.detail);
      ( "output_sha256",
        Telemetry.Json.obj
          (List.rev_map (fun (k, v) -> (k, Telemetry.Json.str v)) r.digests) );
    ]

(* The last stdout line: exactly correct / attempted / failed / metrics. *)
let final r ~trace =
  Telemetry.Json.obj
    [
      ("correct", Telemetry.Json.bool (r.failed = 0));
      ("attempted", Telemetry.Json.int r.attempted);
      ("failed", Telemetry.Json.int r.failed);
      ("metrics", metrics_obj json_metric (if trace then r.layer else r.e2e));
    ]

let print_table r =
  let row kind x =
    Printf.printf "%-9s %-40s %16.6g %-8s n=%d\n" kind x.name x.value x.unit_
      x.samples
  in
  List.iter (row "e2e") (List.rev r.e2e);
  List.iter (row "detail") (List.rev r.detail);
  List.iter (row "layer") (List.rev r.layer);
  List.iter (fun (k, v) -> Printf.printf "%-9s %-40s %s\n" "sha256" k v)
    (List.rev r.digests);
  Printf.printf "%-9s attempted=%d failed=%d failed_frac=%g\n" "ops"
    r.attempted r.failed
    (float_of_int r.failed /. float_of_int (max 1 r.attempted));
  List.iter (Printf.printf "%-9s %s\n" "FAILED") (List.rev r.failures)
