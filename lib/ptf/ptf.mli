(** A Packet Test Framework in the spirit of p4lang/ptf — the tool the
    paper used for its §5 functional validation: build a packet, send it
    into a port, assert on where it comes out and what it looks like. *)

type expectation =
  | Emitted_on of int  (** specific Ethernet port *)
  | Emitted_anywhere
  | Dropped
  | To_cpu

type outcome = {
  runtime : Dejavu_core.Runtime.outcome;
  decoded : Netpkt.Pkt.t option;  (** the emitted/punted frame, decoded *)
}

val send :
  Dejavu_core.Runtime.t ->
  in_port:int ->
  Netpkt.Pkt.t ->
  (outcome, string) result
(** Encode and inject a packet, resolving CPU round trips. *)

val send_expect :
  Dejavu_core.Runtime.t ->
  in_port:int ->
  Netpkt.Pkt.t ->
  expect:expectation ->
  ?check:(Netpkt.Pkt.t -> (unit, string) result) ->
  unit ->
  (outcome, string) result
(** [send] plus verdict assertion plus an optional content check on the
    output frame. All failures become [Error] with a description. *)
