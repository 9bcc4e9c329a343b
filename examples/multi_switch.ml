(* §7's "towards clusters of switch data planes": when a chain's NFs
   exceed one ASIC's MAU stages, chain switches back-to-back — the same
   aggregate bandwidth, many more stages, and cables instead of
   recirculation storms.

   Run with: dune exec examples/multi_switch.exe *)

open Dejavu_core

let spec = Asic.Spec.wedge_100b

let () =
  Format.printf "== Clusters of switch data planes (Sec. 7) ==@.@.";
  (* A deep security chain: 12 NFs of 3 stages each — far beyond one
     Tofino's 4x12 stages once framework overhead is counted. *)
  let chain = List.init 12 (fun i -> Printf.sprintf "nf%02d" i) in
  let resources_of _ = { P4ir.Resources.zero with P4ir.Resources.stages = 3 } in

  Format.printf "chain: %s@.@." (String.concat " -> " chain);
  List.iter
    (fun n ->
      let c = Cluster.make ~spec ~n_switches:n () in
      (* Traffic leaves on port 1 of the last switch. *)
      let exit_port = Cluster.port c ~switch:(n - 1) ~port:1 in
      let chains =
        [ Chain.make ~path_id:1 ~name:"deep" ~nfs:chain ~exit_port () ]
      in
      Format.printf "--- %d switch%s ---@." n (if n = 1 then "" else "es");
      match
        Cluster.place c ~resources_of ~chains ~pinned:[]
          (Cluster.Anneal { iterations = 2000; seed = 42 })
      with
      | Error e -> Format.printf "  %s@.@." e
      | Ok (layout, cost) -> (
          Format.printf "  placement (cost %.2f):@." cost;
          List.iter
            (fun ((id : Asic.Pipelet.id), pl) ->
              Format.printf "    sw%d %s %d: %a@."
                (Cluster.switch_of_pipeline c id.Asic.Pipelet.pipeline)
                (match id.Asic.Pipelet.kind with
                | Asic.Pipelet.Ingress -> "ingress"
                | Asic.Pipelet.Egress -> "egress")
                (id.Asic.Pipelet.pipeline mod spec.Asic.Spec.n_pipelines)
                Layout.pp_pipelet_layout pl)
            layout;
          match
            Traversal.solve ~switches:n (Cluster.chip c) layout ~entry_pipeline:0
              ~exit_port chain
          with
          | None -> Format.printf "  (unroutable)@.@."
          | Some p ->
              Format.printf
                "  traversal: %d recirculations, %d cable hops, %.0f ns@.@."
                p.Traversal.recircs p.Traversal.hops
                (Model.chain_latency_ns ~cable_m:c.Cluster.cable_m (Cluster.chip c) p)))
    [ 1; 2; 3 ];
  Format.printf
    "takeaway: the off-chip hop (%.0f ns at 1 m) is cheap enough that a \
     cluster behaves like one switch with more stages — the paper's \
     extension argument.@."
    (Asic.Latency.recirc_off_chip_ns spec ~cable_m:1.0)
