let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* sockets and span files; stores are never deleted (see [fresh_dir]) *)
let remove_file path =
  try Unix.unlink path with Unix.Unix_error (ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

(* The benchmark deletes no store. On ext4 without a journal a new
   inode is not taken from the inodes freed in the last one to five
   minutes: each file created first steps over every one of them in its
   block group (find_inode_bit -> recently_deleted). With stores deleted
   after use, the program's file creations paid for the benchmark's
   deletions: serve-mix cold p50 climbed from 0.86 to 2.41 ms over eight
   consecutive runs of the same code on a 2-vCPU VM, and sweep's cold
   phase (phase_a) from 2.1-2.4 to ~3.1 ref_ms per point over the first
   runs of a set. So every store is a fresh directory ([fresh_dir]),
   and a used one is emptied by [retire], which truncates its files and
   keeps every inode. *)

(* A path under [dir] that does not exist yet. *)
let fresh_dir ~dir name =
  mkdir_p dir;
  let rec go k =
    let path = Filename.concat dir (Printf.sprintf "%s-%d-%d" name (Unix.getpid ()) k) in
    if Sys.file_exists path then go (k + 1) else path
  in
  go 0

(* Truncate every regular file under [path] to 0 bytes: the data goes,
   the inodes and directories stay (see above). *)
let rec retire path =
  match Unix.lstat path with
  | exception Unix.Unix_error (ENOENT, _, _) -> ()
  | { Unix.st_kind = S_DIR; _ } ->
      Array.iter (fun e -> retire (Filename.concat path e)) (Sys.readdir path)
  | { Unix.st_kind = S_REG; st_size; _ } when st_size > 0 -> Unix.truncate path 0
  | _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match read_file path with
  | exception Sys_error _ -> nan
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
                  float_of_int kb /. 1024.)
          | _ -> acc)
        nan (String.split_on_char '\n' s)

(* CPU time (user + system, in seconds) of each thread of a live
   process, by thread id, from /proc/PID/task/TID/stat (fields 14 and
   15, in clock ticks of USER_HZ = 100 per second on Linux). *)
let thread_cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | tids ->
      Array.to_list tids
      |> List.filter_map (fun tid ->
             match read_file (Filename.concat (Filename.concat dir tid) "stat") with
             | exception Sys_error _ -> None
             | s ->
                 (* the fields after the command name's closing paren,
                    from field 3 on *)
                 let after = String.rindex s ')' + 2 in
                 let f =
                   Array.of_list
                     (String.split_on_char ' '
                        (String.sub s after (String.length s - after)))
                 in
                 Some
                   ( int_of_string tid,
                     float_of_int (int_of_string f.(11) + int_of_string f.(12))
                     /. 100. ))

(* Filesystem type of the mount holding [path] (longest mount-point
   prefix in /proc/mounts). *)
let fs_type path =
  let abs =
    if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path
    else path
  in
  match read_file "/proc/mounts" with
  | exception Sys_error _ -> "unknown"
  | s ->
      let best = ref ("", "unknown") in
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | _ :: mnt :: typ :: _ ->
              let prefix =
                mnt = "/"
                || String.starts_with ~prefix:(mnt ^ "/") (abs ^ "/")
              in
              if prefix && String.length mnt > String.length (fst !best) then
                best := (mnt, typ)
          | _ -> ())
        (String.split_on_char '\n' s);
      snd !best

(* Run a child to completion; true when it exited 0. *)
let run_child prog args =
  let pid =
    Unix.create_process prog (Array.append [| prog |] args) Unix.stdin Unix.stdout
      Unix.stderr
  in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
    | exception Unix.Unix_error (EINTR, _, _) -> wait ()
  in
  wait ()

(* Set-up samples, in seconds, for [setup_s]: their median. A few are
   taken before the workload starts and more between its rounds (see
   [repeat]'s [between]), so the median spans the run's machine state
   as the phase metrics do, not only the process's first moments. *)
let setup_times : float list ref = ref []

let time_setup f =
  let v, t = time f in
  setup_times := t :: !setup_times;
  v

(* Repeat a workload's cycle until [seconds] have passed, at least
   [min] times, after [warmup] discarded cycles (the first cycles of a
   process run slower while caches and the heap fill). Each untraced
   cycle is followed by [calib] calibration samples, and each round by
   [between] (set-up samples, in a child process). With [traced], an
   untraced and a traced cycle run in every round, in alternating order
   (untraced first in even rounds, traced first in odd ones), so a
   drift in the machine's speed, or a cost of coming right after the
   calibration child, falls on both sides alike; the traced cycles run
   with tracing on. *)
let repeat ~seconds ~warmup ~min ~calib ?(between = ignore) ?traced untraced =
  for _ = 1 to warmup do
    ignore (untraced ())
  done;
  let deadline = now () +. seconds in
  let us = ref [] and ts = ref [] in
  let count = ref 0 in
  let run_traced () =
    match traced with
    | Some f ->
        Trace.on := true;
        let t = Fun.protect ~finally:(fun () -> Trace.on := false) f in
        ts := t :: !ts
    | None -> ()
  in
  while !count < min || (now () < deadline && !count < 1000) do
    let odd = !count mod 2 = 1 in
    if odd then run_traced ();
    us := untraced () :: !us;
    if not odd then run_traced ();
    Calib.sample calib;
    between ();
    incr count
  done;
  (Array.of_list (List.rev !us), Array.of_list (List.rev !ts))
