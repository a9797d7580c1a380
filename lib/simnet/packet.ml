type kind =
  | Data of { mutable flow : int; mutable rrt : int option }
  | Bcn of { mutable flow : int; mutable fb : float; mutable cpid : int }
  | Pause of { mutable on : bool }

(* [born] sits in a single-field all-float record so a pooled frame can
   be re-stamped without allocating a float box (a mutable float field
   directly in the mixed [t] record would box on every store). *)
type stamp = { mutable born : float }

type t = { kind : kind; bits : int; stamp : stamp; mutable seq : int }

let data_frame_bits = 12000
let control_frame_bits = 512

let make_data ~seq ~now ~flow ~rrt =
  { kind = Data { flow; rrt }; bits = data_frame_bits; stamp = { born = now }; seq }

let make_bcn ~seq ~now ~flow ~fb ~cpid =
  {
    kind = Bcn { flow; fb; cpid };
    bits = control_frame_bits;
    stamp = { born = now };
    seq;
  }

let make_pause ~seq ~now ~on =
  { kind = Pause { on }; bits = control_frame_bits; stamp = { born = now }; seq }

let[@inline] born p = p.stamp.born

let is_data p = match p.kind with Data _ -> true | Bcn _ | Pause _ -> false

let flow_of p =
  match p.kind with
  | Data { flow; _ } | Bcn { flow; _ } -> Some flow
  | Pause _ -> None

let pp ppf p =
  match p.kind with
  | Data { flow; rrt } ->
      Format.fprintf ppf "DATA[flow=%d%s seq=%d]" flow
        (match rrt with Some c -> Printf.sprintf " rrt=%d" c | None -> "")
        p.seq
  | Bcn { flow; fb; cpid } ->
      Format.fprintf ppf "BCN[flow=%d fb=%g cpid=%d]" flow fb cpid
  | Pause { on } -> Format.fprintf ppf "PAUSE[%s]" (if on then "on" else "off")

(* A placeholder frame used by pools and ring buffers to fill slots that
   hold no live packet; it never enters the data path. *)
let sentinel () = make_pause ~seq:(-1) ~now:0. ~on:false

module Pool = struct
  type packet = t

  (* One free-list stack per frame shape: a recycled frame keeps its
     [kind] block forever and only its fields are rewritten, so a Data
     frame can only be reborn as a Data frame. Stacks are plain arrays
     grown by doubling — releasing never allocates once warm. *)
  type stack = { mutable arr : packet array; mutable n : int }

  type nonrec t = {
    data : stack;
    bcn : stack;
    pause : stack;
    filler : packet;
    mutable live : int;
    mutable created : int;
  }

  let create () =
    {
      data = { arr = [||]; n = 0 };
      bcn = { arr = [||]; n = 0 };
      pause = { arr = [||]; n = 0 };
      filler = sentinel ();
      live = 0;
      created = 0;
    }

  let push pool (s : stack) pkt =
    let cap = Array.length s.arr in
    if s.n >= cap then begin
      let narr = Array.make (Stdlib.max 16 (2 * cap)) pool.filler in
      Array.blit s.arr 0 narr 0 s.n;
      s.arr <- narr
    end;
    s.arr.(s.n) <- pkt;
    s.n <- s.n + 1

  (* the vacated slot keeps its frame: every frame belongs to the pool
     for the run's lifetime anyway, and not clearing it saves a write
     barrier per allocation *)
  let take (s : stack) =
    s.n <- s.n - 1;
    s.arr.(s.n)

  (* [@inline] keeps the [now] float unboxed at the call site on the
     pool-hit path (a non-inlined float argument would box). *)
  let[@inline] alloc_data p ~seq ~now ~flow ~rrt =
    p.live <- p.live + 1;
    if p.data.n = 0 then begin
      p.created <- p.created + 1;
      make_data ~seq ~now ~flow ~rrt
    end
    else begin
      let pkt = take p.data in
      (match pkt.kind with
      | Data d ->
          d.flow <- flow;
          if d.rrt != rrt then d.rrt <- rrt
      | Bcn _ | Pause _ -> assert false);
      pkt.seq <- seq;
      pkt.stamp.born <- now;
      pkt
    end

  let[@inline] alloc_bcn p ~seq ~now ~flow ~fb ~cpid =
    p.live <- p.live + 1;
    if p.bcn.n = 0 then begin
      p.created <- p.created + 1;
      make_bcn ~seq ~now ~flow ~fb ~cpid
    end
    else begin
      let pkt = take p.bcn in
      (match pkt.kind with
      | Bcn b ->
          b.flow <- flow;
          b.fb <- fb;
          b.cpid <- cpid
      | Data _ | Pause _ -> assert false);
      pkt.seq <- seq;
      pkt.stamp.born <- now;
      pkt
    end

  let[@inline] alloc_pause p ~seq ~now ~on =
    p.live <- p.live + 1;
    if p.pause.n = 0 then begin
      p.created <- p.created + 1;
      make_pause ~seq ~now ~on
    end
    else begin
      let pkt = take p.pause in
      (match pkt.kind with
      | Pause q -> q.on <- on
      | Data _ | Bcn _ -> assert false);
      pkt.seq <- seq;
      pkt.stamp.born <- now;
      pkt
    end

  let release p pkt =
    p.live <- p.live - 1;
    match pkt.kind with
    | Data _ -> push p p.data pkt
    | Bcn _ -> push p p.bcn pkt
    | Pause _ -> push p p.pause pkt

  let live p = p.live
  let created p = p.created
  let pooled p = p.data.n + p.bcn.n + p.pause.n
end
