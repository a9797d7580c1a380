(* In-memory spans recorded by the benchmark around its calls into each
   library layer.

   A span is (name, layer, start, end, parent, request id). Spans are
   buffered per domain and only collected when the run ends, so a
   traced pass pays one clock read and one minor-words read at each
   boundary and nothing else. With tracing off, [span] is a direct
   call.

   Self time is reported in wall-clock-equivalent seconds. A span
   opened with [~lanes:l] is a parallel section: the spans that name it
   as parent ran on [l] pool lanes, so their durations are lane-seconds
   and count [1/l] towards the section's wall time. The section keeps
   the remainder (idle and scheduling time on its lanes). Under that
   rule the self times of a span tree always sum to its root's
   duration. *)

type span = {
  id : int;
  name : string;
  layer : string;
  t0 : float;
  t1 : float;
  parent : int;  (** 0 = none *)
  req : int;  (** request / point id, -1 = none *)
  lanes : int;  (** > 1 for a parallel section *)
  words : float;  (** minor words allocated by this domain inside *)
}

let on = ref false
let next_id = Atomic.make 1

type buf = { mutable stack : int list; mutable spans : span list }

let registry : buf list ref = ref []
let registry_mx = Mutex.create ()

let buf_key =
  Domain.DLS.new_key (fun () ->
      let b = { stack = []; spans = [] } in
      Mutex.lock registry_mx;
      registry := b :: !registry;
      Mutex.unlock registry_mx;
      b)

let current () =
  match (Domain.DLS.get buf_key).stack with id :: _ -> id | [] -> 0

let span ?(req = -1) ?parent ?(lanes = 1) ~layer name f =
  if not !on then f ()
  else begin
    let b = Domain.DLS.get buf_key in
    let parent = match parent with Some p -> p | None -> current () in
    let id = Atomic.fetch_and_add next_id 1 in
    b.stack <- id :: b.stack;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let words = Gc.minor_words () -. w0 in
      b.stack <- List.tl b.stack;
      b.spans <-
        { id; name; layer; t0; t1; parent; req; lanes; words } :: b.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* A span whose ends were timed by the caller, possibly on another
   domain or in another process (a wait between two parties). It has
   no minor-words reading. *)
let record ?(req = -1) ?(parent = 0) ~layer name t0 t1 =
  if !on then begin
    let b = Domain.DLS.get buf_key in
    let id = Atomic.fetch_and_add next_id 1 in
    b.spans <-
      { id; name; layer; t0; t1; parent; req; lanes = 1; words = 0. } :: b.spans
  end

(* Every span recorded so far, in start order; clears the buffers. *)
let collect () =
  Mutex.lock registry_mx;
  let all = List.concat_map (fun b ->
      let s = b.spans in
      b.spans <- [];
      s) !registry in
  Mutex.unlock registry_mx;
  List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) all

let dur s = s.t1 -. s.t0

(* Wall-equivalent self time of every span, by id. *)
let self_times spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let children_dur = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children_dur s.parent
          (dur s
          +. Option.value ~default:0. (Hashtbl.find_opt children_dur s.parent)))
    spans;
  let weight = Hashtbl.create 1024 in
  let rec weight_of s =
    match Hashtbl.find_opt weight s.id with
    | Some w -> w
    | None ->
        let w =
          match Hashtbl.find_opt by_id s.parent with
          | None -> 1.
          | Some p -> weight_of p /. float_of_int p.lanes
        in
        Hashtbl.replace weight s.id w;
        w
  in
  List.map
    (fun s ->
      let kids =
        Option.value ~default:0. (Hashtbl.find_opt children_dur s.id)
      in
      let self = dur s -. (kids /. float_of_int s.lanes) in
      (s, self *. weight_of s))
    spans

(* Wall-equivalent self time summed per layer, sorted by layer name. *)
let by_layer spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, t) ->
      Hashtbl.replace tbl s.layer
        (t +. Option.value ~default:0. (Hashtbl.find_opt tbl s.layer)))
    (self_times spans);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let to_jsonl spans =
  let b = Buffer.create 65536 in
  List.iter
    (fun s ->
      Buffer.add_string b
        (Telemetry.Json.obj
           [
             ("id", Telemetry.Json.int s.id);
             ("name", Telemetry.Json.str s.name);
             ("layer", Telemetry.Json.str s.layer);
             ("start", Telemetry.Json.float_full s.t0);
             ("end", Telemetry.Json.float_full s.t1);
             ("parent", Telemetry.Json.int s.parent);
             ("req", Telemetry.Json.int s.req);
             ("lanes", Telemetry.Json.int s.lanes);
             ("minor_words", Telemetry.Json.float_full s.words);
           ]);
      Buffer.add_char b '\n')
    spans;
  Buffer.contents b
