(** Network-level fault injectors for the serve protocol: seeded,
    frame-aware manglings of the client->server byte stream.  These are
    the transport-layer counterpart of {!Fault}'s data faults — instead
    of corrupting what the capture says, they corrupt how it travels:
    frames torn across writes, length prefixes destroyed, connections
    cut mid-frame, frames duplicated or held hostage.  The recovery
    story they exercise is the resumable push
    ({!Ripple_serve.Client.push_with_retries} against
    {!Ripple_serve.Session} sequence dedup): none of them may cost more
    than time. *)

type t =
  | Net_clean
  | Torn_frame  (** deliver the victim frame in two separate writes *)
  | Corrupt_length  (** blow up the victim frame's length prefix *)
  | Mid_frame_cut  (** deliver part of the victim frame, then drop the link *)
  | Duplicate_frame  (** deliver the victim frame twice *)
  | Stall_frame of { delay : float }  (** hold the victim frame [delay] seconds *)

val name : t -> string
(** The fault class (["torn-frame"], ["stall-frame"], …). *)

val to_string : t -> string
(** {!name} plus the parameter, if any (["stall-frame:1.2"]). *)

val to_json : t -> Ripple_util.Json.t

(** What happens to one complete frame on the wire. *)
type action =
  | Deliver of bytes list  (** forward these runs, each as its own write *)
  | Deliver_then_cut of bytes list  (** forward, then drop the connection *)
  | Delay of float * bytes  (** hold the frame, then forward it *)

val plan : seed:int -> t -> victim:int -> index:int -> bytes -> action
(** [plan ~seed t ~victim ~index frame] is the fate of the [index]th
    frame of a connection: every frame but the [victim]th is delivered
    untouched.  Where a frame is cut or torn is a function of [seed]
    and [index] only, so a chaos report is reproduced from its seed. *)
