(* Host-time measurement shared by the three workloads: wall clock,
   quantiles, peak resident memory, output digests, and the per-call
   recorder the traced runs use at each layer boundary. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Linear interpolation between closest ranks; the same convention as
   Python's statistics.quantiles(method="inclusive"). *)
let quantile q = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let pos = q *. Float.of_int (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. Float.of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let sum = List.fold_left ( +. ) 0.0

let mean = function [] -> 0.0 | xs -> sum xs /. Float.of_int (List.length xs)

(* VmHWM of a process, in MiB: the peak resident set since it started. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          Float.of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* Lower this process's VmHWM to its current resident set (Linux 4.0 and
   later), so that [peak_rss_mb None] next reads the peak since now. *)
let reset_peak_rss () =
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")

(* FNV-1a 64 over the deterministic outputs of a run. *)
module Digest = struct
  type t = { mutable h : int64 }

  let create () = { h = 0xcbf29ce484222325L }

  let add_string t s =
    String.iter
      (fun c ->
        t.h <- Int64.logxor t.h (Int64.of_int (Char.code c));
        t.h <- Int64.mul t.h 0x100000001b3L)
      s;
    (* A separator, so ["ab"; "c"] and ["a"; "bc"] differ. *)
    t.h <- Int64.mul (Int64.logxor t.h 0xffL) 0x100000001b3L

  let hex t = Printf.sprintf "%016Lx" t.h

  let of_strings ss =
    let t = create () in
    List.iter (add_string t) ss;
    hex t
end

(* Words allocated by the calling domain so far. *)
let allocated_words () = Gc.allocated_bytes () /. Float.of_int (Sys.word_size / 8)

(* The traced run's recorder.  [call r name f] times one call into a
   layer's public function: its wall seconds are added to metric [name]
   (and kept as a sample), and the words it allocated are charged to the
   layer, which is the prefix of [name] up to its first dot. *)
module Recorder = struct
  type t = {
    values : (string, float) Hashtbl.t;
    samples : (string, float list) Hashtbl.t;
    alloc : (string, float) Hashtbl.t;
  }

  let create () =
    { values = Hashtbl.create 64; samples = Hashtbl.create 64; alloc = Hashtbl.create 8 }

  let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name
  let get t name = Option.value (Hashtbl.find_opt t.values name) ~default:0.0
  let add t name v = Hashtbl.replace t.values name (get t name +. v)
  let set t name v = Hashtbl.replace t.values name v
  let samples t name = List.rev (Option.value (Hashtbl.find_opt t.samples name) ~default:[])

  let sample t name v =
    Hashtbl.replace t.samples name (v :: Option.value (Hashtbl.find_opt t.samples name) ~default:[])

  let call t name f =
    let a0 = allocated_words () in
    let v, dt = time f in
    let words = allocated_words () -. a0 in
    add t name dt;
    sample t name dt;
    let l = layer name in
    Hashtbl.replace t.alloc l (Option.value (Hashtbl.find_opt t.alloc l) ~default:0.0 +. words);
    v

  let alloc_mwords t layer = Option.value (Hashtbl.find_opt t.alloc layer) ~default:0.0 /. 1e6
end

(* [call] on an optional recorder: the untimed path of a shared
   composition passes [None] and pays nothing. *)
let call r name f = match r with None -> f () | Some r -> Recorder.call r name f
