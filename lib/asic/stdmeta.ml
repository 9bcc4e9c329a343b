let name = "std"

let decl =
  P4ir.Hdr.decl name
    [
      ("ingress_port", 9);
      ("egress_spec", 9);
      ("egress_port", 9);
      ("resubmit_flag", 1);
      ("recirc_flag", 1);
      ("drop_flag", 1);
      ("mirror_flag", 1);
      ("to_cpu_flag", 1);
    ]

let r field = P4ir.Fieldref.v name field
let ingress_port = r "ingress_port"
let egress_spec = r "egress_spec"
let egress_port = r "egress_port"
let resubmit_flag = r "resubmit_flag"
let drop_flag = r "drop_flag"
let mirror_flag = r "mirror_flag"
let to_cpu_flag = r "to_cpu_flag"

let layout decls = P4ir.Phv.layout_of (decl :: decls)

(* Header 0 of every [layout]: validity in cell 0, fields from cell 1. *)
let cell f = 1 + P4ir.Hdr.field_index decl f.P4ir.Fieldref.field
let ingress_port_cell = cell ingress_port
let egress_spec_cell = cell egress_spec
let egress_port_cell = cell egress_port
let resubmit_cell = cell resubmit_flag
let drop_cell = cell drop_flag
let mirror_cell = cell mirror_flag
let to_cpu_cell = cell to_cpu_flag

let attach phv =
  P4ir.Phv.add_decl phv decl;
  P4ir.Phv.set_valid phv name
