(** Per-tenant DSCP marker (extension NF): reads the tenant id the
    classifier stored in the SFC context and stamps the corresponding
    traffic class — the kind of policy NFs make decisions on context
    data for (§3). *)

val name : string
val create : (int * int) list -> unit -> (Dejavu_core.Nf.t, string) result
(** [(tenant, dscp)] assignments; unknown tenants keep their marking. *)

val reference : (int * int) list -> tenant:int -> dscp:int -> int
