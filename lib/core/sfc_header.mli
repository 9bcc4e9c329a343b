(** The Dejavu SFC header (Fig. 3) — a 20-byte NSH-derived header carried
    between Ethernet and IP:

    {v
    service_path_id : 16   service_index : 8
    platform metadata (4 bytes):
      in_port:9 out_port:9 resubmit:1 recirc:1 drop:1 mirror:1 to_cpu:1 pad:9
    context data (12 bytes): 4 x (key:8, value:16)
    next_protocol : 8
    v}

    It is pushed by the Classifier, carried along the whole service path
    (surviving deparse/re-parse at every pipe crossing, which is what
    lets Dejavu thread state through the chip), and stripped on the
    final egress pass.

    Every field's position in {!decl} is resolved once, at module load,
    as a P4 target fixes header fields when it compiles the program:
    {!encode}, {!decode} and the in-place wire accessors read and write
    by position through the header's wire codec ({!P4ir.Hdr.get_wire}),
    and {!of_phv}/{!to_phv} go through precomputed field references.
    Nothing here looks a field up by name or formats one per header. *)

val name : string
(** ["sfc"]. *)

val decl : P4ir.Hdr.decl
val byte_size : int
(** 20. *)

val next_proto_ipv4 : int
(** 1 — the value of [next_protocol] for an IPv4 payload. *)

(** Field references. *)

val service_path_id : P4ir.Fieldref.t
val service_index : P4ir.Fieldref.t
val in_port : P4ir.Fieldref.t
val out_port : P4ir.Fieldref.t
val resubmit_flag : P4ir.Fieldref.t
val recirc_flag : P4ir.Fieldref.t
val drop_flag : P4ir.Fieldref.t
val mirror_flag : P4ir.Fieldref.t
val to_cpu_flag : P4ir.Fieldref.t
val ctx_key : int -> P4ir.Fieldref.t
(** [ctx_key i] for i in 0..3. *)

val ctx_val : int -> P4ir.Fieldref.t
val next_protocol : P4ir.Fieldref.t
val n_ctx_slots : int

(** Context keys reserved by the framework. *)

val ctx_key_tenant : int
val ctx_key_app : int
val ctx_key_debug : int
val ctx_key_cpu_reason : int

(** {2 Plain-record view, for the control plane and tests} *)

type t = {
  service_path_id : int;
  service_index : int;
  in_port : int;
  out_port : int;
  resubmit : bool;
  recirc : bool;
  drop : bool;
  mirror : bool;
  to_cpu : bool;
  context : (int * int) array;  (** 4 key/value slots *)
  next_protocol : int;
}

val default : t

val encode : t -> Bytes.t
(** The 20 wire bytes. Each value is truncated to its field's width;
    the 9 pad bits are zero. *)

val decode : Bytes.t -> off:int -> (t, string) result
(** The header at byte [off]. [Error] when [off] is negative or the
    buffer ends before [off + byte_size]; never raises. *)

(** {2 On the wire, in place}

    For a header at byte [off] of a buffer holding at least
    [off + byte_size] bytes; [Invalid_argument] otherwise. *)

val decode_path : Bytes.t -> off:int -> int * int
(** [(service_path_id, service_index)], and nothing else: where a
    reinjected packet resumes its service path. *)

val clear_cpu_mark : Bytes.t -> off:int -> unit
(** Clear what {!encode} of the decoded header with [to_cpu = false]
    and every slot keyed {!ctx_key_cpu_reason} set to [(0, 0)] would
    change: the to-CPU bit, the pad bits and the key and value of each
    such slot. Every other bit is left as it is. *)

val of_phv : P4ir.Phv.t -> t option
(** [None] when the PHV's SFC header is invalid/absent. *)

val to_phv : t -> P4ir.Phv.t -> unit
(** Write all fields and mark the header valid. *)

val find_context : t -> int -> int option
(** Look up a context value by key (0 keys are empty slots). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
