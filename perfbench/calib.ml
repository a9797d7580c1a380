(* Machine-speed calibration.

   On a shared host a virtual machine's speed drifts: on a 2-vCPU VM,
   back-to-back 20 s runs of the same deterministic figures pass had
   median cycle times up to 1.5x apart, in sustained stretches, with
   the program unchanged. A fixed kernel that uses nothing from the
   library — a Map build and a list sort, allocating and chasing
   pointers the way the workloads do — is timed between the workload's
   cycles, and their phase metrics and set-up time are reported as
   [raw * reference_ms / kernel median]: the time on a machine where
   the kernel takes [reference_ms]. The raw times stay in the detail
   line.

   The kernel runs in a fresh child process (`perfbench calib`) with
   the runtime's default settings, so it shares no domains, heap or GC
   settings with the workload: a change to the program that alters the
   process's runtime state (a pool kept alive, a [Gc.set]) moves the
   workload's time but not the kernel's. *)

module IM = Map.Make (Int)

let reference_ms = 20.

let kernel () =
  let m = ref IM.empty in
  let x = ref 12345 in
  for i = 0 to 15_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    m := IM.add (!x land 0xFFFFF) (float_of_int i) !m
  done;
  let s = IM.fold (fun _ v acc -> acc +. v) !m 0. in
  let l = List.sort compare (List.init 25_000 (fun i -> (i * 7919) land 65535)) in
  ignore (Sys.opaque_identity (s, l))

(* The child: one untimed run to size the heap, then [n] timed runs,
   one duration in seconds per line. *)
let child n =
  kernel ();
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    kernel ();
    Printf.printf "%.9f\n" (Unix.gettimeofday () -. t0)
  done

let samples : float list ref = ref []

(* Time the kernel [n] times in a fresh child process. *)
let sample n =
  if n > 0 then begin
    let ic =
      Unix.open_process_args_in Sys.executable_name
        [| Sys.executable_name; "calib"; "--samples"; string_of_int n |]
    in
    let got = In_channel.input_all ic in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> ()
    | _ -> failwith "calibration child failed");
    List.iter
      (fun l -> if l <> "" then samples := float_of_string l :: !samples)
      (String.split_on_char '\n' got)
  end

let median_ms () = 1e3 *. Pstats.median (Array.of_list !samples)
let scale raw = raw *. reference_ms /. median_ms ()
