(* serve-mix: an open-loop, fixed-rate request schedule sent to a forked
   `bcn_serve` daemon (1 worker lane, its own store) from this one
   process over two connections.

   Set-up: the schedule is generated in a fresh process and decoded
   here, untimed (that is the load generator's work, not the
   program's). The program's set-up is a daemon's start on a fresh
   store up to its first stats reply, timed [setup_first] times before
   the open loop and three times as many after it. Then the warm key
   set is requested once (pre-warm, closed loop) and the schedule runs:
   each entry is sent when due, however late the daemon answers, and
   each reply is timed from when its request was due. Requests still
   unanswered after the drain window count as failed. *)

let drain_window = 3.
let stats_period = 0.5

(* replies to requests due in the schedule's first second are checked
   but not timed: the daemon's caches are still filling *)
let warmup = 1.

(* ---------- a non-blocking line connection ---------- *)

type conn = { fd : Unix.file_descr; pending : Buffer.t; lines : string Queue.t }

let connect path =
  let deadline = Util.now () +. 20. in
  let rec go () =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect fd (ADDR_UNIX path) with
    | () -> { fd; pending = Buffer.create 4096; lines = Queue.create () }
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
      when Util.now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

let send c s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write c.fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

let scratch = Bytes.create 65536

(* Read what is available (call after select says readable). *)
let fill c =
  match Unix.read c.fd scratch 0 (Bytes.length scratch) with
  | 0 -> failwith "daemon closed the connection"
  | n ->
      Buffer.add_subbytes c.pending scratch 0 n;
      let s = Buffer.contents c.pending in
      let rec split start =
        match String.index_from_opt s start '\n' with
        | Some nl ->
            Queue.push (String.sub s start (nl - start)) c.lines;
            split (nl + 1)
        | None ->
            Buffer.clear c.pending;
            Buffer.add_substring c.pending s start (String.length s - start)
      in
      split 0
  | exception Unix.Unix_error (EINTR, _, _) -> ()

let rec next_line c =
  match Queue.take_opt c.lines with
  | Some l -> l
  | None ->
      fill c;
      next_line c

let parse l =
  match Serve.Protocol.parse_response l with
  | Ok r -> r
  | Error e -> failwith ("unparseable response: " ^ e)

(* Closed-loop request: send, then read to this id's final answer. *)
let rpc c line id =
  send c line;
  let rec await () =
    match parse (next_line c) with
    | Serve.Protocol.Queued _ | Progress _ | Telemetry _ -> await ()
    | (Result { id = i; _ } | Error { id = i; _ } | Stats_reply { id = i; _ }
      | Bye { id = i } | Cancelled { id = i } | Subscribed { id = i }) as r ->
        if i = id then r else await ()
  in
  await ()

let stats_line id = Serve.Protocol.encode_request ~id Serve.Protocol.Stats

let stats c id =
  match rpc c (stats_line id) id with
  | Serve.Protocol.Stats_reply { metrics; _ } -> metrics
  | _ -> failwith "stats: unexpected reply"

let metric ms k = Option.value ~default:nan (List.assoc_opt k ms)

(* ---------- the daemon ---------- *)

type daemon = { pid : int; c0 : conn; c1 : conn }

let rec wait_pid pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (EINTR, _, _) -> wait_pid pid
  | exception Unix.Unix_error (ECHILD, _, _) -> ()

(* kill and wait: the error path *)
let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  wait_pid pid

(* Every server start gets a fresh store, never deleted (see
   {!Util.fresh_dir}). run.py marks [WORK/stores] as a top directory
   (chattr +T), so ext4 places each directory made in it in a block
   group of its own, away from inodes that anything else freed lately:
   run right after a sweep run that still deleted its stores, cold p50
   read 1.88 and 1.71 ms without the mark and 0.88-0.91 ms with it.
   The set-up samples' stores, 31 small ones a run, share
   [WORK/stores/setup] and its one group, so that a timed set-up does
   not also pick and open a new group. A run adds about 14 MB of
   stores. *)
let stores_dir work = Filename.concat work "stores"
let setup_stores_dir work = Filename.concat (stores_dir work) "setup"

(* Start a server process ([argv store]) on a fresh socket and a fresh
   store in [dir], and wait for its first stats reply. No process is
   pinned to a CPU: once stores stopped being deleted, pinned
   and unpinned runs spread alike over five to ten runs, and pinning
   through taskset put an exec of its own into every timed set-up. *)
let start ~sock ~dir ~name argv =
  Util.remove_file sock;
  let argv = argv (Util.fresh_dir ~dir name) in
  let devnull = Unix.openfile "/dev/null" [ O_WRONLY ] 0 in
  let pid = Unix.create_process argv.(0) argv Unix.stdin devnull Unix.stderr in
  Unix.close devnull;
  match
    let c0 = connect sock in
    let c1 = connect sock in
    ignore (stats c0 (-1));
    (c0, c1)
  with
  | c0, c1 -> { pid; c0; c1 }
  | exception e ->
      reap pid;
      raise e

let start_daemon ~serve_exe ~sock ~dir ~name =
  start ~sock ~dir ~name (fun store ->
      [| serve_exe; "serve"; "--socket"; sock; "--store"; store; "--jobs"; "1" |])

let stop d =
  (match rpc d.c0 (Serve.Protocol.encode_request ~id:(-2) Shutdown) (-2) with
  | _ -> ()
  | exception _ -> (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  (try Unix.close d.c0.fd with Unix.Unix_error _ -> ());
  (try Unix.close d.c1.fd with Unix.Unix_error _ -> ());
  wait_pid d.pid

(* ---------- the open loop ---------- *)

type obs = {
  mutable warm_lat : float list;
  mutable cold_lat : (int * float) list;  (** (request id, latency) *)
  mutable untimed : int;  (** replies in the warm-up second *)
  mutable late : float list;
  mutable sent : int;
  mutable depth : (float * float) list;  (** (time, queue depth) *)
}

let open_loop (sched : Schedule.t) d ~reference r =
  let o =
    { warm_lat = []; cold_lat = []; untimed = 0; late = []; sent = 0; depth = [] }
  in
  (* id -> (due, class, twin): a dedup pair's two ids are twins *)
  let pending = Hashtbl.create 4096 in
  let dedup_payload = Hashtbl.create 256 in
  let entries = sched.Schedule.entries in
  let n = Array.length entries in
  let t0 = Util.now () +. 0.05 in
  let last_due = if n = 0 then 0. else entries.(n - 1).Schedule.due in
  let hard_end = t0 +. last_due +. drain_window in
  let next_stats = ref t0 and stats_id = ref (-100) in
  let i = ref 0 in
  let handle now line =
    match parse line with
    | Serve.Protocol.Queued _ | Progress _ | Telemetry _ -> ()
    | Stats_reply { metrics; _ } ->
        o.depth <- (now -. t0, metric metrics "serve.queue_depth") :: o.depth
    | Result { id; payload; _ } -> (
        match Hashtbl.find_opt pending id with
        | None -> Result.op r ~what:"reply to an unknown id" false
        | Some (due, cls, twin) ->
            Hashtbl.remove pending id;
            let lat = now -. due in
            let timed = due -. t0 >= warmup in
            if not timed then o.untimed <- o.untimed + 1;
            (match cls with
            | Schedule.Warm k ->
                if timed then o.warm_lat <- lat :: o.warm_lat;
                Result.op r ~what:"warm reply differs from the first reply for its key"
                  (payload = reference.(k))
            | Cold_run ->
                if timed then o.cold_lat <- (id, lat) :: o.cold_lat;
                Result.op r true
            | Cold_margin -> Result.op r true
            | Dedup ->
                if timed then o.cold_lat <- (id, lat) :: o.cold_lat;
                (match Hashtbl.find_opt dedup_payload twin with
                | Some p ->
                    Result.op r ~what:"dedup pair replies differ" (p = payload)
                | None ->
                    Hashtbl.replace dedup_payload id payload;
                    Result.op r true)))
    | Error { id; message } ->
        Hashtbl.remove pending id;
        Result.op r ~what:("error reply: " ^ message) false
    | Cancelled _ | Bye _ | Subscribed _ ->
        Result.op r ~what:"unexpected reply" false
  in
  let drain_lines c now =
    while not (Queue.is_empty c.lines) do
      handle now (Queue.pop c.lines)
    done
  in
  let conns = [| d.c0; d.c1 |] in
  let fds = [ d.c0.fd; d.c1.fd ] in
  let continue = ref true in
  while !continue do
    let now = Util.now () in
    if !i < n && now >= t0 +. entries.(!i).Schedule.due then begin
      let e = entries.(!i) in
      let due = t0 +. e.Schedule.due in
      o.late <- (now -. due) :: o.late;
      let ids = e.Schedule.ids in
      (match ids with
      | [ a; b ] ->
          Hashtbl.replace pending a (due, e.cls, b);
          Hashtbl.replace pending b (due, e.cls, a)
      | _ -> List.iter (fun id -> Hashtbl.replace pending id (due, e.cls, 0)) ids);
      (* a dedup pair goes out in one write *)
      send conns.(e.conn) (String.concat "" e.lines);
      o.sent <- o.sent + List.length ids;
      incr i
    end
    else if !i < n && now >= !next_stats then begin
      send d.c0 (stats_line !stats_id);
      decr stats_id;
      next_stats := !next_stats +. stats_period
    end
    else if (!i >= n && Hashtbl.length pending = 0) || now >= hard_end then
      continue := false
    else begin
      let wake =
        if !i < n then Float.min (t0 +. entries.(!i).Schedule.due) !next_stats
        else hard_end
      in
      let timeout = Float.max 0. (wake -. now) in
      match Unix.select fds [] [] timeout with
      | readable, _, _ ->
          List.iter
            (fun fd ->
              let c = if fd = d.c0.fd then d.c0 else d.c1 in
              fill c;
              drain_lines c (Util.now ()))
            readable
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    end
  done;
  Hashtbl.iter
    (fun _ _ -> Result.op r ~what:"request unanswered after the drain window" false)
    pending;
  o

(* ---------- traced pass: where a request's time goes ----------

   After the open loop, a fresh daemon and {!Replica_daemon} (a traced
   copy of the daemon's compute path, started the same way in a process
   of its own) get the same warm key set, and one request sample is
   replayed closed loop, one request at a time, in rounds: to the
   daemon, to the replica untraced (its first connection) and to the
   replica traced (its second). The layer-sum check and the tracing
   overhead compare the replica's traced and untraced rounds, which
   swap order every round; how closely the replica's untraced rounds
   follow the daemon's is reported beside them.

   In a traced round each request is a [request] span here, holding
   the client's send and its parse of the answer. The replica's spans
   are mapped to the request whose time span holds them, and the waits
   between the two processes become spans: [serve.ipc.request] from the
   client's write to the replica's select returning, and
   [serve.ipc.reply] from the replica writing the answer to the
   client's read returning. The replica's metrics snapshot after a
   completion runs once the answer is written, off the request's path;
   it is reported apart. *)

let sp = Trace.span

let request_of_line line =
  match Serve.Protocol.parse_request (String.trim line) with
  | Ok { command = Serve.Protocol.Compute q; _ } -> q
  | _ -> failwith "schedule line is not a compute request"

let with_id line id =
  Serve.Protocol.encode_request ~id (Serve.Protocol.Compute (request_of_line line))

let replay_rounds = 60
let replay_warm_reps = 10
let replay_fresh = 8

(* One round's sample, with request ids from [first_id]: every warm key
   [replay_warm_reps] times, then [replay_fresh] runs no earlier
   request asked for (scenario seeds from [base]). *)
let replay_sample (sched : Schedule.t) ~seed ~base ~round ~first_id =
  let warm = Array.to_list sched.Schedule.warm in
  let fresh =
    List.init replay_fresh (fun k ->
        Schedule.line ~id:0
          (Serve.Tasks.Run
             (Schedule.cold_scenario
                ((seed * 7919) + base + (round * replay_fresh) + k))))
  in
  Array.of_list (List.concat (List.init replay_warm_reps (fun _ -> warm)) @ fresh)
  |> Array.mapi (fun k line -> (first_id + k, with_id line (first_id + k)))

(* A closed-loop request as a [request] span. Returns the answer; the
   time the client's read returned with it goes into [recv], keyed by
   the request span's id. *)
let traced_rpc c ~recv (id, line) =
  sp ~req:id ~layer:"bench" "request" (fun () ->
      let rid = Trace.current () in
      sp ~req:id ~layer:"serve" "client.send" (fun () -> send c line);
      let last_fill = ref (Util.now ()) in
      let rec await () =
        match Queue.take_opt c.lines with
        | None ->
            fill c;
            last_fill := Util.now ();
            await ()
        | Some l -> (
            let t0 = Util.now () in
            match parse l with
            | (Serve.Protocol.Result { id = i; _ } | Error { id = i; _ }) as r
              when i = id ->
                Trace.record ~req:id ~parent:rid ~layer:"serve" "client.parse" t0
                  (Util.now ());
                Hashtbl.replace recv rid !last_fill;
                r
            | _ -> await ())
      in
      await ())

(* The replica's spans, placed in the client's requests (see above). *)
let merge_replica ~client ~server ~recv =
  let requests =
    Array.of_list (List.filter (fun s -> s.Trace.name = "request") client)
  in
  let nreq = Array.length requests in
  (* the request whose time span holds [t], by bisection *)
  let holder t =
    let rec go lo hi =
      if lo >= hi then lo - 1
      else
        let mid = (lo + hi) / 2 in
        if requests.(mid).Trace.t0 <= t then go (mid + 1) hi else go lo mid
    in
    let i = go 0 nreq in
    if i >= 0 && t <= requests.(i).Trace.t1 then Some requests.(i) else None
  in
  let next = ref (List.fold_left (fun a s -> max a s.Trace.id) 0 client) in
  let span ~parent ~layer name t0 t1 =
    incr next;
    { Trace.id = !next; name; layer; t0; t1; parent = parent.Trace.id;
      req = parent.Trace.req; lanes = 1; words = 0. }
  in
  let send_end = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.Trace.name = "client.send" then Hashtbl.replace send_end s.Trace.parent s.Trace.t1)
    client;
  let ready = Hashtbl.create 1024 and last_write = Hashtbl.create 1024 in
  let placed =
    List.filter_map
      (fun s ->
        match s.Trace.name with
        | "store.snapshot" -> None
        | "serve.ready" ->
            (match holder s.Trace.t0 with
            | Some q
              when (not (Hashtbl.mem ready q.Trace.id))
                   && s.Trace.t0
                      >= Option.value ~default:infinity
                           (Hashtbl.find_opt send_end q.Trace.id) ->
                Hashtbl.replace ready q.Trace.id s.Trace.t0
            | _ -> ());
            None
        | name -> (
            match holder (0.5 *. (s.Trace.t0 +. s.Trace.t1)) with
            | None -> None
            | Some q ->
                let t0 = Float.max s.Trace.t0 q.Trace.t0
                and t1 = Float.min s.Trace.t1 q.Trace.t1 in
                if name = "serve.write" then Hashtbl.replace last_write q.Trace.id t1;
                Some (span ~parent:q ~layer:s.Trace.layer name t0 t1)))
      server
  in
  let waits =
    Array.to_list requests
    |> List.concat_map (fun q ->
           let id = q.Trace.id in
           (match (Hashtbl.find_opt send_end id, Hashtbl.find_opt ready id) with
           | Some a, Some b -> [ span ~parent:q ~layer:"serve" "serve.ipc.request" a b ]
           | _ -> [])
           @
           match (Hashtbl.find_opt last_write id, Hashtbl.find_opt recv id) with
           | Some a, Some b when b >= a ->
               [ span ~parent:q ~layer:"serve" "serve.ipc.reply" a b ]
           | _ -> [])
  in
  List.sort
    (fun a b -> compare (a.Trace.t0, a.Trace.id) (b.Trace.t0, b.Trace.id))
    (client @ placed @ waits)

let traced_pass r ~work ~seed ~serve_exe (sched : Schedule.t) ~reference ~cold_lat =
  let file name = Filename.concat work name in
  let rspans = file "replica-spans.bin" in
  Util.remove_file rspans;
  (* a fresh daemon and the replica, side by side in the same state:
     empty stores warmed with the warm key set, whose answers must be
     the open-loop daemon's *)
  let d =
    start_daemon ~serve_exe ~sock:(file "replay.sock") ~dir:(stores_dir work)
      ~name:"replay"
  in
  let prewarm c what =
    Array.iteri
      (fun k line ->
        let id = 600_000 + k in
        match rpc c (with_id line id) id with
        | Serve.Protocol.Result { payload; _ } ->
            Result.check r (what ^ " warm-up answer = the open-loop daemon's")
              (payload = reference.(k))
        | _ -> Result.check r (what ^ " warm-up request answered") false)
      sched.Schedule.warm
  in
  let server =
    Fun.protect
      ~finally:(fun () -> reap d.pid)
      (fun () ->
        let rep =
          start ~sock:(file "replica.sock") ~dir:(stores_dir work) ~name:"replica" (fun store ->
              [| Sys.executable_name; "replica-daemon"; "--socket"; file "replica.sock";
                 "--store"; store; "--spans"; rspans |])
        in
        Fun.protect ~finally:(fun () -> reap rep.pid) @@ fun () ->
        prewarm d.c0 "daemon";
        (* traced: its execute spans give every warm kind's execute time *)
        prewarm rep.c1 "replica";
        let recv = Hashtbl.create 8192 in
        let untraced_round c ~base ~first_id round =
          replay_sample sched ~seed ~base ~round ~first_id
          |> Array.fold_left
               (fun acc (id, line) ->
                 let reply, t = Util.time (fun () -> rpc c line id) in
                 (match reply with
                 | Serve.Protocol.Result _ -> Result.op r true
                 | _ -> Result.op r ~what:"replay request failed" false);
                 acc +. t)
               0.
        in
        let daemon_round = untraced_round d.c0 ~base:5_000_000 ~first_id:1_000_000 in
        let replica_round = untraced_round rep.c0 ~base:7_000_000 ~first_id:1_000_000 in
        let traced_round round =
          let sample =
            replay_sample sched ~seed ~base:6_000_000 ~round
              ~first_id:(2_000_000 + (round * 10_000))
          in
          Trace.on := true;
          let answers, traced =
            Util.time (fun () ->
                sp ~layer:"bench" "replay" (fun () ->
                    Array.map (traced_rpc rep.c1 ~recv) sample))
          in
          Trace.on := false;
          Array.iteri
            (fun k a ->
              let warm =
                if k < Array.length sample - replay_fresh then
                  Some (k mod Array.length sched.Schedule.warm)
                else None
              in
              match (a, warm) with
              | Serve.Protocol.Result { payload; _ }, Some w ->
                  Result.op r ~what:"replica warm answer differs from the daemon's"
                    (payload = reference.(w))
              | Serve.Protocol.Result _, None -> Result.op r true
              | _ -> Result.op r ~what:"replica request failed" false)
            answers;
          traced
        in
        (* (daemon, replica untraced, replica traced) walls; the two
           replica sides swap order every round, the daemon's round
           comes first or last *)
        let rounds =
          Array.init replay_rounds (fun round ->
              if round mod 2 = 0 then
                let dw = daemon_round round in
                let u = replica_round round in
                (dw, u, traced_round round)
              else
                let t = traced_round round in
                let u = replica_round round in
                (daemon_round round, u, t))
        in
        (* the schedule's first 40 timed cold runs, for their execute
           times (fresh keys to the replica's store) *)
        let lines = Hashtbl.create 1024 in
        Array.iter
          (fun e -> List.iter2 (Hashtbl.replace lines) e.Schedule.ids e.Schedule.lines)
          sched.Schedule.entries;
        List.rev cold_lat
        |> List.filteri (fun k _ -> k < 40)
        |> List.iter (fun (id, _) -> ignore (rpc rep.c1 (Hashtbl.find lines id) id));
        ignore (rpc rep.c0 (Serve.Protocol.encode_request ~id:(-2) Shutdown) (-2));
        (try Unix.close rep.c0.fd with Unix.Unix_error _ -> ());
        (try Unix.close rep.c1.fd with Unix.Unix_error _ -> ());
        wait_pid rep.pid;
        stop d;
        let server : Trace.span list = Marshal.from_string (Util.read_file rspans) 0 in
        (rounds, server, recv))
  in
  let rounds, server, recv = server in
  Util.remove_file rspans;
  let snapshots = List.filter (fun s -> s.Trace.name = "store.snapshot") server in
  Result.detail r "serve.snapshot_us"
    (1e6 *. Pstats.mean (Array.of_list (List.map Trace.dur snapshots)))
    "us" (List.length snapshots);
  let spans = merge_replica ~client:(Trace.collect ()) ~server ~recv in
  let g = Layers.by_name spans in
  let us name = Layers.per (g name) 1e6 in
  let lay name span unit_ v = Result.layer r name v unit_ (g span).Layers.count in
  lay "serve.parse_us" "serve.parse" "us" (us "serve.parse");
  lay "serve.key_us" "serve.key" "us" (us "serve.key");
  lay "store.find_small_us" "store.find_small" "us" (us "store.find_small");
  lay "serve.encode_us" "serve.encode" "us" (us "serve.encode");
  List.iter
    (fun name -> Result.detail r (name ^ "_us") (us name) "us" (g name).Layers.count)
    [ "serve.ipc.request"; "serve.ipc.reply"; "serve.ipc.pipe";
      "parallel.handoff"; "serve.execute.run"; "store.put" ];
  Layers.report_trace r ~spans
    ~untraced:(Array.map (fun (_, u, _) -> u) rounds)
    ~traced:(Array.map (fun (_, _, t) -> t) rounds);
  (* how closely the replica's untraced rounds follow the daemon's
     (unchecked: two processes of the same binary differ by as much) *)
  Result.detail r "serve.replica_vs_daemon_wall"
    (Pstats.median (Array.map (fun (dw, u, _) -> u /. dw) rounds))
    "fraction" (Array.length rounds);
  (* execute time per kind, from the replica's execute spans (its
     warm-up ran every warm kind cold); and the queue wait of the
     schedule's cold runs: measured latency minus the replica's execute
     time for the same request *)
  let gs = Layers.by_name server in
  List.iter
    (fun kind ->
      let a = gs ("serve.execute." ^ kind) in
      Result.layer r ("serve.execute_ms." ^ kind) (Layers.per a 1e3) "ms" a.count)
    Metrics.serve_kinds;
  let exec = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.Trace.name = "serve.execute.run" then Hashtbl.replace exec s.Trace.req (Trace.dur s))
    server;
  let waits =
    Array.of_list
      (List.filter_map
         (fun (id, lat) -> Option.map (fun e -> lat -. e) (Hashtbl.find_opt exec id))
         cold_lat)
  in
  Result.layer r "serve.queue_wait_ms"
    (if Array.length waits = 0 then 0. else 1e3 *. Pstats.median waits)
    "ms" (Array.length waits);
  spans

(* ---------- the workload ---------- *)

let percentile_metric ?phase r name xs p =
  let n = Array.length xs in
  let v = if n = 0 then nan else 1e3 *. Pstats.percentile xs p in
  Result.check r
    (Printf.sprintf "%s has at least 10 samples beyond it (n=%d)" name n)
    (Pstats.supported ~n p);
  Option.iter (fun ph -> Result.phase r ph v n) phase;
  Result.detail r name v "ms" n

let run ~work ~seed ~seconds:_ ~trace ~serve_exe ~setup_first ~input r =
  let sock = Filename.concat work "serve.sock" in
  let d = ref None in
  (* the program's set-up: a daemon's start to its first stats reply *)
  let timed_start ~dir () =
    let dm = Util.time_setup (fun () -> start_daemon ~serve_exe ~sock ~dir ~name:"serve") in
    d := Some dm;
    dm
  in
  let setup_sample () =
    stop (timed_start ~dir:(setup_stores_dir work) ());
    d := None
  in
  Fun.protect
    ~finally:(fun () -> Option.iter (fun dm -> reap dm.pid) !d)
    (fun () ->
      for _ = 2 to setup_first do
        setup_sample ()
      done;
      let daemon = timed_start ~dir:(stores_dir work) () in
      (* decoding the schedule is the load generator's work: untimed *)
      let sched = Schedule.of_text (Util.read_file input) in
      (* pre-warm: the first reply per warm key is its reference *)
      let reference, prewarm =
        Util.time (fun () ->
            Array.mapi
              (fun k line ->
                let id = 500_000 + k in
                match rpc daemon.c0 (with_id line id) id with
                | Serve.Protocol.Result { payload; _ } -> payload
                | _ -> failwith "pre-warm request failed")
              sched.Schedule.warm)
      in
      Result.detail r "serve.prewarm_s" prewarm "s" (Array.length reference);
      let before = stats daemon.c0 (-3) in
      let cpu0 = Util.thread_cpu_s daemon.pid in
      let o, wall = Util.time (fun () -> open_loop sched daemon ~reference r) in
      (* how loaded the daemon was at the schedule's rate: the event
         loop's thread and its busiest other thread (the worker lane) *)
      let busy =
        List.map
          (fun (tid, t) ->
            (tid, (t -. Option.value ~default:0. (List.assoc_opt tid cpu0)) /. wall))
          (Util.thread_cpu_s daemon.pid)
      in
      Result.detail r "serve.loop_busy_frac"
        (Option.value ~default:nan (List.assoc_opt daemon.pid busy))
        "fraction" 1;
      Result.detail r "serve.worker_busy_frac"
        (List.fold_left
           (fun a (tid, f) -> if tid = daemon.pid then a else Float.max a f)
           0. busy)
        "fraction" 1;
      let after0 = stats daemon.c0 (-4) and after1 = stats daemon.c1 (-5) in
      let entries = sched.Schedule.entries in
      let count f = Array.fold_left (fun a e -> if f e.Schedule.cls then a + 1 else a) 0 entries in
      let cold_keys = count (function Schedule.Warm _ -> false | _ -> true) in
      let pairs = count (fun c -> c = Schedule.Dedup) in
      let executed = metric after0 "serve.executed" -. metric before "serve.executed" in
      Result.check r "serve.executed = distinct cold keys"
        (executed = float_of_int cold_keys);
      let joined = metric after0 "conn.joined" +. metric after1 "conn.joined" in
      Result.check r "every dedup pair shared one computation"
        (joined = float_of_int pairs);
      (* open-loop honesty: the daemon's queue must not grow *)
      let depth = Array.of_list (List.rev_map snd o.depth) in
      let nd = Array.length depth in
      let half a b = Pstats.mean (Array.sub depth a (b - a)) in
      let growth = if nd < 4 then 0. else half (nd / 2) nd -. half 0 (nd / 2) in
      Result.check r "serve.queue_depth does not grow across the run" (growth <= 2.);
      Result.detail r "serve.queue_depth_growth" growth "count" nd;
      let warm = Array.of_list o.warm_lat in
      let cold = Array.of_list (List.map snd o.cold_lat) in
      percentile_metric r ~phase:"phase_a" "serve.warm_p50_ms" warm 0.5;
      percentile_metric r ~phase:"phase_b" "serve.cold_p50_ms" cold 0.5;
      percentile_metric r "serve.warm_p99_ms" warm 0.99;
      percentile_metric r "serve.cold_p95_ms" cold 0.95;
      let late = Array.of_list o.late in
      let late_p99 = 1e3 *. Pstats.percentile late 0.99 in
      Result.detail r "loadgen.late_p99_ms" late_p99 "ms" (Array.length late);
      Result.detail r "loadgen.sent" (float_of_int o.sent) "count" 1;
      Result.detail r "serve.untimed_warmup_replies" (float_of_int o.untimed) "count" 1;
      Result.meta r "serve_rate_per_s" (Telemetry.Json.float_full Schedule.rate);
      Result.meta r "serve_worker_lanes" (Telemetry.Json.int 1);
      Result.meta r "serve_connections" (Telemetry.Json.int 2);
      Result.e2e r "peak_rss_mb" (Util.peak_rss_mb (string_of_int daemon.pid)) "MB" 1;
      let total k = metric after0 k in
      if trace then begin
        Result.layer r "serve.executed" (total "serve.executed") "count" 1;
        Result.layer r "serve.dedup_joined" joined "count" 1;
        Result.layer r "store.hits" (total "store.hits") "count" 1;
        Result.layer r "store.misses" (total "store.misses") "count" 1;
        Result.layer r "loadgen.late_p99_ms" late_p99 "ms" (Array.length late);
        Result.layer r "loadgen.sent" (float_of_int o.sent) "count" 1
      end;
      Result.digest r "warm_payloads" (String.concat "" (Array.to_list reference));
      stop daemon;
      d := None;
      (* more set-ups, so their median spans the run *)
      for _ = 1 to 3 * setup_first do
        setup_sample ()
      done;
      if trace then
        traced_pass r ~work ~seed ~serve_exe sched ~reference ~cold_lat:o.cold_lat
      else [])
