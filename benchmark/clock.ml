(* Host-time primitives.  Wall time is CLOCK_MONOTONIC through bechamel's
   stub; CPU time is Unix.times; peak memory is the kernel's VmHWM.
   Sys.time is never used: it is process CPU time summed over domains,
   not the time a user waits. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type cpu = { user : float; sys : float }

let cpu () =
  let t = Unix.times () in
  { user = t.Unix.tms_utime; sys = t.Unix.tms_stime }

(* Restart the kernel's peak-RSS (VmHWM) count from the current RSS. *)
let reset_peak_rss () =
  Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM line in /proc/self/status"
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* The host-speed reference: a fixed computation that uses none of the
   simulator's code (random read-modify-writes over a 32 MiB buffer, with
   a short-lived allocation per step, which is the shape of the device
   model's work).  The host is shared, and its speed for this process
   swings by tens of percent over seconds and minutes; sampled before and
   after each timed call, the reference swings with it, and rescales that
   call's time to the reference host (README.md). *)
let reference_mib = 32
let reference_buf = Bytes.make (reference_mib lsl 20) '\000'
let reference_ring = Array.make 64 (0, 0)

let reference_ns () =
  let t0 = now_ns () in
  let h = ref 0x2545F491 in
  for i = 1 to 150_000 do
    h := ((!h * 0x5bd1e995) + i) land max_int;
    let a = (!h lsr 7) land ((reference_mib lsl 20) - 8) land lnot 7 in
    Bytes.set_int64_le reference_buf a (Int64.succ (Bytes.get_int64_le reference_buf a));
    reference_ring.(i land 63) <- (i, !h)
  done;
  now_ns () - t0

(* [reference_ns]'s median on the reference host. *)
let reference_host_ns = 4.5e6

(* Linearly interpolated quantile of a sample (the default of NumPy and
   of R's type 7); [nan] for an empty sample. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i + 1 >= n then a.(n - 1) else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
