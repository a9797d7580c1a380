(* A traced replica of Serve.Daemon.run's compute path, for the
   serve-mix traced pass.

   It runs as a process of its own, started the way the daemon is (one
   worker lane beside the event loop), and answers compute,
   stats and shutdown requests with the daemon's steps in the daemon's
   order: one select over the listening socket, the self-pipe and the
   connections; parse, key and store lookup on the event loop; a warm
   answer written at once; a cold request acknowledged with Queued,
   memoised on the worker lane, handed back through a mutex queue and
   the self-pipe, answered, and followed by a metrics snapshot (the
   daemon evaluates one for its subscribers on every completion).
   Cancel, subscribe and draining are left out: the replay sends none
   of them.

   Requests on the second connection accepted are traced; those on any
   other run untraced, so one process gives both sides of the
   comparison (two processes of the same daemon binary, started side by
   side, differed by up to a fifth in speed on a 2-vCPU VM).

   Every step is a span, flat (no nesting). The waits between parties
   are spans too, timed from one side's clock reading to the other's:
   [parallel.handoff] from Pool.submit to the job starting on the
   worker lane, and [serve.ipc.pipe] from a completion being queued to
   the event loop taking it. A [serve.ready] mark (zero length) notes
   when select returned for a connection; the client turns it into the
   socket wait. On shutdown every span is written, marshalled, to
   [spans_out], then Bye is sent. *)

type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;
  mutable alive : bool;
  traced : bool;
}
type job = { mutable waiters : (conn * int) list }

type completion = {
  hex : string;
  res : (string, string) result;
  pushed : float;  (** when the worker lane queued it *)
  rid : int;
}

let sp = Trace.span

let write c line =
  if c.alive then begin
    let b = Bytes.unsafe_of_string line in
    let n = Bytes.length b in
    let rec go off =
      if off < n then
        match Unix.write c.fd b off (n - off) with
        | w -> go (off + w)
        | exception Unix.Unix_error (EINTR, _, _) -> go off
        | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
            c.alive <- false
    in
    go 0
  end

(* A reply on the critical path: encode, then write. *)
let send ~req c resp =
  let line =
    sp ~req ~layer:"serve" "serve.encode" (fun () ->
        Serve.Protocol.encode_response resp)
  in
  sp ~req ~layer:"serve" "serve.write" (fun () -> write c line)

let run ~socket ~store ~spans_out =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Util.remove_file socket;
  let srv = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind srv (ADDR_UNIX socket);
  Unix.listen srv 64;
  let pipe_r, pipe_w = Unix.pipe () in
  let cache = Store.Cache.open_ ~dir:store in
  let inflight : (string, job) Hashtbl.t = Hashtbl.create 32 in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let completions : completion Queue.t = Queue.create () in
  let cmx = Mutex.create () in
  let executed = Atomic.make 0 in
  let stopping = ref None in
  let scratch = Bytes.create 65536 in
  let accepted = ref 0 in
  Parallel.Pool.with_pool ~size:2 (fun pool ->
      let snapshot () =
        let mx = Telemetry.Metrics.create () in
        Store.Cache.publish_metrics cache mx;
        Telemetry.Metrics.add mx "store.entries" (Store.Cache.objects cache);
        Telemetry.Metrics.add mx "serve.queue_depth" (Parallel.Pool.pending pool);
        Telemetry.Metrics.add mx "serve.inflight" (Hashtbl.length inflight);
        Telemetry.Metrics.add mx "serve.executed" (Atomic.get executed);
        List.map
          (fun name ->
            (name, float_of_int (Telemetry.Metrics.counter_value mx name)))
          (Telemetry.Metrics.names mx)
      in
      let finish_job { hex; res; rid; _ } =
        match Hashtbl.find_opt inflight hex with
        | None -> ()
        | Some job ->
            Hashtbl.remove inflight hex;
            (match res with
            | Ok payload ->
                List.iteri
                  (fun i (c, id) ->
                    send ~req:id c
                      (Serve.Protocol.Result
                         { id; warm = false; dedup = i > 0; payload }))
                  job.waiters
            | Error message ->
                List.iter
                  (fun (c, id) -> send ~req:id c (Serve.Protocol.Error { id; message }))
                  job.waiters);
            sp ~req:rid ~layer:"store" "store.snapshot" (fun () ->
                ignore (Sys.opaque_identity (snapshot ())))
      in
      let execute ~id req key =
        match
          sp ~req:id ~layer:"store" "store.find.miss" (fun () ->
              (Store.Cache.find_value cache key : string option))
        with
        | Some v -> v
        | None ->
            let v =
              sp ~req:id ~layer:"serve"
                ("serve.execute." ^ Schedule.kind_of req)
                (fun () ->
                  Atomic.incr executed;
                  Serve.Tasks.execute ~cache req)
            in
            let payload =
              sp ~req:id ~layer:"store" "store.marshal" (fun () ->
                  Marshal.to_string v [])
            in
            sp ~req:id ~layer:"store" "store.put" (fun () ->
                Store.Cache.put cache key payload);
            sp ~req:id ~layer:"store" "store.unmarshal" (fun () ->
                (Marshal.from_string payload 0 : string))
      in
      let submit_cold c id req key hex =
        Hashtbl.add inflight hex { waiters = [ (c, id) ] };
        sp ~req:id ~layer:"serve" "serve.queued" (fun () ->
            write c
              (Serve.Protocol.encode_response
                 (Serve.Protocol.Queued { id; key = hex }));
            ignore (Sys.opaque_identity (Serve.Tasks.describe req)));
        let submitted = Util.now () in
        Parallel.Pool.submit pool (fun () ->
            Trace.record ~req:id ~layer:"parallel" "parallel.handoff" submitted
              (Util.now ());
            let res =
              match execute ~id req key with
              | payload -> Ok payload
              | exception e -> Error (Printexc.to_string e)
            in
            let pushed = Util.now () in
            Mutex.lock cmx;
            Queue.push { hex; res; pushed; rid = id } completions;
            Mutex.unlock cmx;
            let b = Bytes.make 1 'c' in
            let rec poke () =
              match Unix.write pipe_w b 0 1 with
              | _ -> ()
              | exception Unix.Unix_error (EINTR, _, _) -> poke ()
            in
            poke ())
      in
      let handle_compute c id req =
        let key, hex =
          sp ~req:id ~layer:"serve" "serve.key" (fun () ->
              let key = Store.Key.of_material (Serve.Tasks.material req) in
              (key, Store.Key.to_hex key))
        in
        match Hashtbl.find_opt inflight hex with
        | Some job ->
            job.waiters <- job.waiters @ [ (c, id) ];
            sp ~req:id ~layer:"serve" "serve.queued" (fun () ->
                write c
                  (Serve.Protocol.encode_response
                     (Serve.Protocol.Queued { id; key = hex })))
        | None -> (
            let t0 = Util.now () in
            let warm =
              if Store.Cache.mem cache key then
                (Store.Cache.find_value cache key : string option)
              else None
            in
            Trace.record ~req:id ~layer:"store"
              (if warm = None then "store.mem.miss" else "store.find_small")
              t0 (Util.now ());
            match warm with
            | Some payload ->
                send ~req:id c
                  (Serve.Protocol.Result { id; warm = true; dedup = false; payload });
                ignore (Sys.opaque_identity (Serve.Tasks.describe req))
            | None -> submit_cold c id req key hex)
      in
      let handle_line c line =
        match
          sp ~layer:"serve" "serve.parse" (fun () ->
              Serve.Protocol.parse_request line)
        with
        | Ok { id; command = Serve.Protocol.Compute req } -> handle_compute c id req
        | Ok { id; command = Stats } ->
            write c
              (Serve.Protocol.encode_response
                 (Serve.Protocol.Stats_reply { id; metrics = snapshot () }))
        | Ok { id; command = Shutdown } -> stopping := Some (c, id)
        | Ok { id; _ } ->
            write c
              (Serve.Protocol.encode_response
                 (Serve.Protocol.Error { id; message = "not served by the replica" }))
        | Error msg ->
            write c
              (Serve.Protocol.encode_response
                 (Serve.Protocol.Error { id = 0; message = "parse error: " ^ msg }))
      in
      let handle_readable c =
        match
          sp ~layer:"serve" "serve.read" (fun () ->
              match Unix.read c.fd scratch 0 (Bytes.length scratch) with
              | 0 -> None
              | n ->
                  Buffer.add_subbytes c.pending scratch 0 n;
                  Some (Buffer.contents c.pending))
        with
        | None ->
            c.alive <- false;
            Hashtbl.remove conns c.fd;
            Unix.close c.fd
        | Some s ->
            let rec go start =
              match String.index_from_opt s start '\n' with
              | Some nl ->
                  if c.alive then handle_line c (String.sub s start (nl - start));
                  go (nl + 1)
              | None ->
                  Buffer.clear c.pending;
                  Buffer.add_substring c.pending s start (String.length s - start)
            in
            go 0
        | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
            c.alive <- false;
            Hashtbl.remove conns c.fd
        | exception Unix.Unix_error (EINTR, _, _) -> ()
      in
      let rec loop () =
        let finished = ref [] in
        Mutex.lock cmx;
        while not (Queue.is_empty completions) do
          finished := Queue.pop completions :: !finished
        done;
        Mutex.unlock cmx;
        List.iter
          (fun cm ->
            Trace.record ~req:cm.rid ~layer:"serve" "serve.ipc.pipe" cm.pushed
              (Util.now ());
            finish_job cm)
          (List.rev !finished);
        if !stopping = None || Hashtbl.length inflight > 0 then begin
          let fds =
            srv :: pipe_r :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
          in
          (match Unix.select fds [] [] (-1.) with
          | exception Unix.Unix_error (EINTR, _, _) -> ()
          | readable, _, _ ->
              let ready = Util.now () in
              List.iter
                (fun fd ->
                  if fd = srv then begin
                    let cfd, _ = Unix.accept srv in
                    incr accepted;
                    Hashtbl.replace conns cfd
                      { fd = cfd; pending = Buffer.create 256; alive = true;
                        traced = !accepted = 2 }
                  end
                  else if fd = pipe_r then ignore (Unix.read pipe_r scratch 0 256)
                  else
                    match Hashtbl.find_opt conns fd with
                    | Some c ->
                        (* the worker lane's spans for this request, and
                           the completion, follow the same setting *)
                        Trace.on := c.traced;
                        Trace.record ~layer:"serve" "serve.ready" ready ready;
                        handle_readable c
                    | None -> ())
                readable);
          loop ()
        end
      in
      loop ());
  Trace.on := false;
  Util.write_file spans_out (Marshal.to_string (Trace.collect ()) []);
  (match !stopping with
  | Some (c, id) -> write c (Serve.Protocol.encode_response (Serve.Protocol.Bye { id }))
  | None -> ());
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
  Unix.close srv;
  Unix.close pipe_r;
  Unix.close pipe_w;
  Util.remove_file socket
