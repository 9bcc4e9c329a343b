(* Differential tests: every NF's data-plane control block against its
   pure OCaml reference model, on randomized inputs. *)

open Dejavu_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let ip = Netpkt.Ip4.of_string_exn
let pfx = Netpkt.Ip4.prefix_of_string_exn
let mac = Netpkt.Mac.of_string_exn

(* Build a PHV the way a pipelet would: parse the encoded frame with the
   NF's own parser, attach standard metadata. *)
let phv_of_pkt (nf : Nf.t) pkt =
  let phv = P4ir.Phv.create [] in
  match P4ir.Parser_graph.parse nf.Nf.parser (Netpkt.Pkt.encode pkt) phv with
  | Error e -> Alcotest.fail e
  | Ok _ ->
      Asic.Stdmeta.attach phv;
      phv

let exec (nf : Nf.t) phv = P4ir.Control.exec (Nf.table_env nf) (Nf.control nf) phv

let pkt_for ?(sfc = None) tuple =
  let base =
    Netpkt.Pkt.tcp_flow ~src_mac:(mac "02:00:00:00:00:01")
      ~dst_mac:(mac "02:00:00:00:00:02") tuple
  in
  match sfc with
  | None -> base
  | Some hdr -> (
      match base with
      | Netpkt.Pkt.Eth e :: rest ->
          Netpkt.Pkt.Eth { e with Netpkt.Eth.ethertype = Netpkt.Eth.ethertype_sfc }
          :: Netpkt.Pkt.Sfc_raw (Sfc_header.encode hdr)
          :: rest
      | _ -> assert false)

let with_sfc = Some { Sfc_header.default with service_path_id = 5; service_index = 1 }

let st = Random.State.make [| 2026 |]

let random_ip_in (prefix : Netpkt.Ip4.prefix) =
  let host_bits = 32 - prefix.Netpkt.Ip4.len in
  let host =
    if host_bits = 0 then 0L
    else Int64.of_int (Random.State.int st (1 lsl min host_bits 20))
  in
  Netpkt.Ip4.of_int64 (Int64.logor (Netpkt.Ip4.to_int64 prefix.Netpkt.Ip4.addr) host)

(* --- classifier --- *)

open Nflib

let classifier_rules =
  [
    { Classifier.dst_prefix = pfx "10.0.0.0/16"; proto = None; path_id = 1; tenant = 1 };
    {
      Classifier.dst_prefix = pfx "10.0.1.0/24";
      proto = Some Netpkt.Ipv4.proto_tcp;
      path_id = 2;
      tenant = 2;
    };
    { Classifier.dst_prefix = pfx "172.16.0.0/12"; proto = None; path_id = 3; tenant = 3 };
  ]

let prop_classifier_differential =
  QCheck.Test.make ~name:"classifier vs reference" ~count:300 QCheck.unit
    (fun () ->
      let nf = Result.get_ok (Classifier.create classifier_rules ()) in
      let dst =
        match Random.State.int st 4 with
        | 0 -> random_ip_in (pfx "10.0.0.0/16")
        | 1 -> random_ip_in (pfx "10.0.1.0/24")
        | 2 -> random_ip_in (pfx "172.16.0.0/12")
        | _ -> Netpkt.Ip4.random st
      in
      let proto =
        if Random.State.bool st then Netpkt.Ipv4.proto_tcp else Netpkt.Ipv4.proto_udp
      in
      let tuple =
        { Netpkt.Flow.src = Netpkt.Ip4.random st; dst; proto;
          src_port = 1; dst_port = 2 }
      in
      let phv = phv_of_pkt nf (pkt_for tuple) in
      P4ir.Phv.set_int phv Asic.Stdmeta.ingress_port 3;
      exec nf phv;
      let expected =
        Classifier.reference classifier_rules
          { Classifier.dst; proto; ingress_port = 3 }
      in
      match (Sfc_header.of_phv phv, expected) with
      | Some got, Some want ->
          got.Sfc_header.service_path_id = want.Sfc_header.service_path_id
          && Sfc_header.find_context got Sfc_header.ctx_key_tenant
             = Sfc_header.find_context want Sfc_header.ctx_key_tenant
          && got.Sfc_header.in_port = 3
          && not got.Sfc_header.to_cpu
      | Some got, None -> got.Sfc_header.to_cpu
      | None, _ -> false)

let test_classifier_pushes_header () =
  let nf = Result.get_ok (Classifier.create classifier_rules ()) in
  let tuple =
    { Netpkt.Flow.src = ip "1.2.3.4"; dst = ip "10.0.1.9";
      proto = Netpkt.Ipv4.proto_tcp; src_port = 5; dst_port = 6 }
  in
  let phv = phv_of_pkt nf (pkt_for tuple) in
  exec nf phv;
  check Alcotest.bool "sfc now valid" true (P4ir.Phv.is_valid phv "sfc");
  check Alcotest.int "ethertype switched" Netpkt.Eth.ethertype_sfc
    (P4ir.Phv.get_int phv Net_hdrs.eth_ethertype);
  (* proto-specific rule beats the /16. *)
  check Alcotest.int "path id" 2 (P4ir.Phv.get_int phv Sfc_header.service_path_id)

(* --- firewall --- *)

let fw_rules =
  [
    { Firewall.src = Some (pfx "198.51.100.0/24"); dst = None; proto = None;
      dst_port = None; action = Firewall.Deny; priority = 10 };
    { Firewall.src = None; dst = Some (pfx "10.9.0.0/16"); proto = Some 6;
      dst_port = Some 23; action = Firewall.Deny; priority = 8 };
    { Firewall.src = Some (pfx "198.51.100.128/25"); dst = None; proto = None;
      dst_port = None; action = Firewall.Permit; priority = 20 };
  ]

let prop_firewall_differential =
  QCheck.Test.make ~name:"firewall vs reference" ~count:300 QCheck.unit
    (fun () ->
      let nf = Result.get_ok (Firewall.create fw_rules ()) in
      let src =
        if Random.State.bool st then random_ip_in (pfx "198.51.100.0/24")
        else Netpkt.Ip4.random st
      in
      let dst =
        if Random.State.bool st then random_ip_in (pfx "10.9.0.0/16")
        else Netpkt.Ip4.random st
      in
      let dst_port = if Random.State.bool st then 23 else 80 in
      let tuple =
        { Netpkt.Flow.src; dst; proto = Netpkt.Ipv4.proto_tcp;
          src_port = 1000; dst_port }
      in
      let phv = phv_of_pkt nf (pkt_for ~sfc:with_sfc tuple) in
      exec nf phv;
      let expected =
        Firewall.reference fw_rules { Firewall.src; dst; proto = 6; dst_port }
      in
      let dropped = P4ir.Phv.get_int phv Sfc_header.drop_flag = 1 in
      (expected = Firewall.Deny) = dropped)

let test_firewall_priority_permit_overrides () =
  (* The /25 permit at priority 20 shadows the /24 deny at 10. *)
  let nf = Result.get_ok (Firewall.create fw_rules ()) in
  let tuple =
    { Netpkt.Flow.src = ip "198.51.100.200"; dst = ip "8.8.8.8";
      proto = Netpkt.Ipv4.proto_tcp; src_port = 1; dst_port = 80 }
  in
  let phv = phv_of_pkt nf (pkt_for ~sfc:with_sfc tuple) in
  exec nf phv;
  check Alcotest.int "permitted" 0 (P4ir.Phv.get_int phv Sfc_header.drop_flag)

(* --- vgw --- *)

let vgw_maps =
  [
    { Vgw.dst_prefix = pfx "10.0.1.0/24"; vid = 101; tenant = 1 };
    { Vgw.dst_prefix = pfx "10.0.0.0/16"; vid = 100; tenant = 9 };
  ]

let prop_vgw_differential =
  QCheck.Test.make ~name:"vgw vs reference" ~count:300 QCheck.unit (fun () ->
      let nf = Result.get_ok (Vgw.create vgw_maps ()) in
      let dst =
        if Random.State.bool st then random_ip_in (pfx "10.0.0.0/16")
        else Netpkt.Ip4.random st
      in
      let tuple =
        { Netpkt.Flow.src = Netpkt.Ip4.random st; dst;
          proto = Netpkt.Ipv4.proto_tcp; src_port = 1; dst_port = 2 }
      in
      let phv = phv_of_pkt nf (pkt_for ~sfc:with_sfc tuple) in
      exec nf phv;
      match Vgw.reference vgw_maps ~tagged_vid:None dst with
      | Vgw.Encap { vid; _ } ->
          P4ir.Phv.is_valid phv "vlan"
          && P4ir.Phv.get_int phv Net_hdrs.vlan_vid = vid
          && P4ir.Phv.get_int phv Sfc_header.next_protocol = 2
      | Vgw.Pass -> not (P4ir.Phv.is_valid phv "vlan")
      | Vgw.Decap -> false)

let test_vgw_decap () =
  let nf = Result.get_ok (Vgw.create vgw_maps ()) in
  (* A tagged packet arriving: eth/vlan/ipv4. *)
  let pkt =
    [
      Netpkt.Pkt.Eth (Netpkt.Eth.make ~dst:(mac "02:00:00:00:00:02") Netpkt.Eth.ethertype_vlan);
      Netpkt.Pkt.Vlan (Netpkt.Vlan.make ~vid:101 Netpkt.Eth.ethertype_ipv4);
      Netpkt.Pkt.Ipv4
        (Netpkt.Ipv4.make ~protocol:6 ~src:(ip "10.0.1.5") ~dst:(ip "8.8.8.8") ());
      Netpkt.Pkt.Tcp (Netpkt.Tcp.make ~src_port:1 ~dst_port:2 ());
    ]
  in
  let phv = phv_of_pkt nf pkt in
  exec nf phv;
  check Alcotest.bool "vlan stripped" false (P4ir.Phv.is_valid phv "vlan")

let test_vgw_unknown_vid_passes () =
  let nf = Result.get_ok (Vgw.create vgw_maps ()) in
  let pkt =
    [
      Netpkt.Pkt.Eth (Netpkt.Eth.make ~dst:(mac "02:00:00:00:00:02") Netpkt.Eth.ethertype_vlan);
      Netpkt.Pkt.Vlan (Netpkt.Vlan.make ~vid:999 Netpkt.Eth.ethertype_ipv4);
      Netpkt.Pkt.Ipv4
        (Netpkt.Ipv4.make ~protocol:6 ~src:(ip "10.0.1.5") ~dst:(ip "8.8.8.8") ());
      Netpkt.Pkt.Tcp (Netpkt.Tcp.make ~src_port:1 ~dst_port:2 ());
    ]
  in
  let phv = phv_of_pkt nf pkt in
  exec nf phv;
  check Alcotest.bool "unknown vid kept" true (P4ir.Phv.is_valid phv "vlan")

(* --- lb --- *)

let prop_lb_differential =
  QCheck.Test.make ~name:"lb vs reference" ~count:200 QCheck.unit (fun () ->
      let nf = Result.get_ok (Lb.create ()) in
      let table = Option.get (Nf.find_table nf Lb.table_name) in
      let sessions =
        List.init 8 (fun _ ->
            let t = Netpkt.Flow.random_tuple st in
            let backend = Netpkt.Ip4.random st in
            (t, backend))
      in
      List.iter
        (fun (t, b) -> Result.get_ok (Lb.install_session table t b))
        sessions;
      let tuple =
        if Random.State.bool st then fst (List.nth sessions (Random.State.int st 8))
        else Netpkt.Flow.random_tuple st
      in
      let phv = phv_of_pkt nf (pkt_for ~sfc:with_sfc tuple) in
      exec nf phv;
      match Lb.reference ~sessions tuple with
      | `Rewrite backend ->
          Netpkt.Ip4.equal
            (Netpkt.Ip4.of_int64
               (P4ir.Bitval.to_int64 (P4ir.Phv.get phv Net_hdrs.ip_dst)))
            backend
          && P4ir.Phv.get_int phv Sfc_header.to_cpu_flag = 0
      | `To_cpu -> P4ir.Phv.get_int phv Sfc_header.to_cpu_flag = 1)

let test_lb_udp_flows_hash () =
  let nf = Result.get_ok (Lb.create ()) in
  let table = Option.get (Nf.find_table nf Lb.table_name) in
  let tuple =
    { Netpkt.Flow.src = ip "1.1.1.1"; dst = ip "2.2.2.2";
      proto = Netpkt.Ipv4.proto_udp; src_port = 53; dst_port = 53 }
  in
  Result.get_ok (Lb.install_session table tuple (ip "9.9.9.9"));
  let phv = phv_of_pkt nf (pkt_for ~sfc:with_sfc tuple) in
  exec nf phv;
  check Alcotest.int64 "udp flow rewritten"
    (Netpkt.Ip4.to_int64 (ip "9.9.9.9"))
    (P4ir.Bitval.to_int64 (P4ir.Phv.get phv Net_hdrs.ip_dst))

let test_lb_pick_backend_deterministic () =
  let backends = Nflib.Catalog.tenant1_backends in
  let t = Netpkt.Flow.random_tuple st in
  check Alcotest.bool "same flow, same backend" true
    (Netpkt.Ip4.equal (Lb.pick_backend backends t) (Lb.pick_backend backends t))

(* --- router --- *)

let routes =
  [
    { Router.prefix = pfx "10.0.0.0/8"; next_hop_mac = mac "02:00:00:00:aa:01";
      src_mac = mac "02:00:00:00:00:fe" };
    { Router.prefix = pfx "10.1.0.0/16"; next_hop_mac = mac "02:00:00:00:aa:02";
      src_mac = mac "02:00:00:00:00:fe" };
  ]

let prop_router_differential =
  QCheck.Test.make ~name:"router vs reference" ~count:300 QCheck.unit (fun () ->
      let nf = Result.get_ok (Router.create routes ()) in
      let dst =
        if Random.State.bool st then random_ip_in (pfx "10.0.0.0/8")
        else Netpkt.Ip4.random st
      in
      let ttl = 1 + Random.State.int st 4 in
      let tuple =
        { Netpkt.Flow.src = Netpkt.Ip4.random st; dst;
          proto = Netpkt.Ipv4.proto_tcp; src_port = 1; dst_port = 2 }
      in
      let pkt =
        match pkt_for ~sfc:with_sfc tuple with
        | Netpkt.Pkt.Eth e :: Netpkt.Pkt.Sfc_raw s :: Netpkt.Pkt.Ipv4 h :: rest ->
            Netpkt.Pkt.Eth e :: Netpkt.Pkt.Sfc_raw s
            :: Netpkt.Pkt.Ipv4 { h with Netpkt.Ipv4.ttl } :: rest
        | _ -> assert false
      in
      let phv = phv_of_pkt nf pkt in
      exec nf phv;
      match Router.reference routes ~dst ~ttl with
      | Router.Forward { next_hop_mac; ttl = ttl'; _ } ->
          P4ir.Phv.get_int phv Net_hdrs.ip_ttl = ttl'
          && Int64.equal
               (P4ir.Bitval.to_int64 (P4ir.Phv.get phv Net_hdrs.eth_dst))
               (Netpkt.Mac.to_int64 next_hop_mac)
          && P4ir.Phv.get_int phv Sfc_header.drop_flag = 0
      | Router.Drop_ttl | Router.Drop_no_route ->
          P4ir.Phv.get_int phv Sfc_header.drop_flag = 1)

let test_router_longest_prefix () =
  let nf = Result.get_ok (Router.create routes ()) in
  let tuple =
    { Netpkt.Flow.src = ip "1.1.1.1"; dst = ip "10.1.2.3";
      proto = Netpkt.Ipv4.proto_tcp; src_port = 1; dst_port = 2 }
  in
  let phv = phv_of_pkt nf (pkt_for ~sfc:with_sfc tuple) in
  exec nf phv;
  check Alcotest.int64 "the /16 wins"
    (Netpkt.Mac.to_int64 (mac "02:00:00:00:aa:02"))
    (P4ir.Bitval.to_int64 (P4ir.Phv.get phv Net_hdrs.eth_dst))

(* --- extension NFs --- *)

let nat_bindings =
  [ { Nat.internal = ip "192.168.0.10"; public = ip "203.0.113.200" } ]

let prop_nat_differential =
  QCheck.Test.make ~name:"nat vs reference" ~count:200 QCheck.unit (fun () ->
      let nf = Result.get_ok (Nat.create nat_bindings ()) in
      let src =
        if Random.State.bool st then ip "192.168.0.10" else Netpkt.Ip4.random st
      in
      let tuple =
        { Netpkt.Flow.src; dst = ip "8.8.8.8"; proto = Netpkt.Ipv4.proto_tcp;
          src_port = 1; dst_port = 2 }
      in
      let phv = phv_of_pkt nf (pkt_for ~sfc:with_sfc tuple) in
      exec nf phv;
      Netpkt.Ip4.equal
        (Netpkt.Ip4.of_int64
           (P4ir.Bitval.to_int64 (P4ir.Phv.get phv Net_hdrs.ip_src)))
        (Nat.reference nat_bindings src))

(* Random tenant -> DSCP assignments over tenants 0..15 (each tenant at
   most once), against packets of a random tenant and DSCP: the tenant
   rides in context slot 0 under [ctx_key_tenant], where the classifier
   writes it, so both assigned and unassigned tenants occur. *)
let prop_dscp_marker_differential =
  QCheck.Test.make ~name:"dscp marker vs reference" ~count:300 QCheck.unit
    (fun () ->
      let assignments =
        List.filter_map
          (fun tenant ->
            if Random.State.bool st then
              Some (tenant, Random.State.int st 64)
            else None)
          (List.init 16 Fun.id)
      in
      let nf = Result.get_ok (Dscp_marker.create assignments ()) in
      let tenant = Random.State.int st 16 and dscp = Random.State.int st 64 in
      let tuple =
        { Netpkt.Flow.src = Netpkt.Ip4.random st; dst = Netpkt.Ip4.random st;
          proto = Netpkt.Ipv4.proto_tcp; src_port = 1; dst_port = 2 }
      in
      let hdr =
        { Sfc_header.default with
          context = [| (Sfc_header.ctx_key_tenant, tenant); (0, 0); (0, 0); (0, 0) |] }
      in
      let pkt =
        List.map
          (function
            | Netpkt.Pkt.Ipv4 h -> Netpkt.Pkt.Ipv4 { h with Netpkt.Ipv4.dscp }
            | l -> l)
          (pkt_for ~sfc:(Some hdr) tuple)
      in
      let phv = phv_of_pkt nf pkt in
      exec nf phv;
      P4ir.Phv.get_int phv (P4ir.Fieldref.v "ipv4" "dscp")
      = Dscp_marker.reference assignments ~tenant ~dscp)

(* Up to four random selectors, each side absent or a prefix of length
   0..32, against packets whose addresses are drawn inside a selector's
   prefixes or at random, so both tapped and untapped traffic occurs. *)
let prop_mirror_tap_differential =
  QCheck.Test.make ~name:"mirror tap vs reference" ~count:300 QCheck.unit
    (fun () ->
      let side () =
        if Random.State.bool st then None
        else Some (Netpkt.Ip4.prefix (Netpkt.Ip4.random st) (Random.State.int st 33))
      in
      let selectors =
        List.init (Random.State.int st 5) (fun _ ->
            { Mirror_tap.src = side (); dst = side () })
      in
      let nf = Result.get_ok (Mirror_tap.create selectors ()) in
      let addr pick =
        match
          if selectors <> [] && Random.State.bool st then
            pick (List.nth selectors (Random.State.int st (List.length selectors)))
          else None
        with
        | Some p -> random_ip_in p
        | None -> Netpkt.Ip4.random st
      in
      let src = addr (fun s -> s.Mirror_tap.src)
      and dst = addr (fun s -> s.Mirror_tap.dst) in
      let tuple =
        { Netpkt.Flow.src; dst; proto = Netpkt.Ipv4.proto_tcp; src_port = 1;
          dst_port = 2 }
      in
      let phv = phv_of_pkt nf (pkt_for ~sfc:with_sfc tuple) in
      exec nf phv;
      (P4ir.Phv.get_int phv Sfc_header.mirror_flag = 1)
      = Mirror_tap.reference selectors ~src ~dst)

let test_dscp_marker_uses_context () =
  let nf = Result.get_ok (Dscp_marker.create [ (1, 46); (2, 26) ] ()) in
  let tuple =
    { Netpkt.Flow.src = ip "1.1.1.1"; dst = ip "2.2.2.2";
      proto = Netpkt.Ipv4.proto_tcp; src_port = 1; dst_port = 2 }
  in
  let hdr =
    { Sfc_header.default with
      context = [| (Sfc_header.ctx_key_tenant, 2); (0, 0); (0, 0); (0, 0) |] }
  in
  let phv = phv_of_pkt nf (pkt_for ~sfc:(Some hdr) tuple) in
  exec nf phv;
  check Alcotest.int "tenant 2 marked EF-ish" 26
    (P4ir.Phv.get_int phv (P4ir.Fieldref.v "ipv4" "dscp"))

let test_mirror_tap () =
  let selectors = [ { Mirror_tap.src = None; dst = Some (pfx "10.0.4.0/24") } ] in
  let nf = Result.get_ok (Mirror_tap.create selectors ()) in
  let run dst =
    let tuple =
      { Netpkt.Flow.src = ip "1.1.1.1"; dst; proto = Netpkt.Ipv4.proto_tcp;
        src_port = 1; dst_port = 2 }
    in
    let phv = phv_of_pkt nf (pkt_for ~sfc:with_sfc tuple) in
    exec nf phv;
    P4ir.Phv.get_int phv Sfc_header.mirror_flag
  in
  check Alcotest.int "matching traffic tapped" 1 (run (ip "10.0.4.20"));
  check Alcotest.int "other traffic untouched" 0 (run (ip "10.0.5.20"))

let () =
  Alcotest.run "nfs"
    [
      ( "classifier",
        [
          qtest prop_classifier_differential;
          Alcotest.test_case "pushes header" `Quick test_classifier_pushes_header;
        ] );
      ( "firewall",
        [
          qtest prop_firewall_differential;
          Alcotest.test_case "priority" `Quick test_firewall_priority_permit_overrides;
        ] );
      ( "vgw",
        [
          qtest prop_vgw_differential;
          Alcotest.test_case "decap" `Quick test_vgw_decap;
          Alcotest.test_case "unknown vid" `Quick test_vgw_unknown_vid_passes;
        ] );
      ( "lb",
        [
          qtest prop_lb_differential;
          Alcotest.test_case "udp flows" `Quick test_lb_udp_flows_hash;
          Alcotest.test_case "pick_backend" `Quick test_lb_pick_backend_deterministic;
        ] );
      ( "router",
        [
          qtest prop_router_differential;
          Alcotest.test_case "longest prefix" `Quick test_router_longest_prefix;
        ] );
      ( "extensions",
        [
          qtest prop_nat_differential;
          qtest prop_dscp_marker_differential;
          qtest prop_mirror_tap_differential;
          Alcotest.test_case "dscp marker" `Quick test_dscp_marker_uses_context;
          Alcotest.test_case "mirror tap" `Quick test_mirror_tap;
        ] );
    ]
