type layer =
  | Eth of Eth.t
  | Vlan of Vlan.t
  | Sfc_raw of Bytes.t
  | Arp of Arp.t
  | Ipv4 of Ipv4.t
  | Tcp of Tcp.t
  | Udp of Udp.t
  | Icmp of Icmp.t
  | Vxlan of Vxlan.t
  | Payload of string

type t = layer list

let sfc_size = 20

let layer_size = function
  | Eth _ -> Eth.size
  | Vlan _ -> Vlan.size
  | Sfc_raw b -> Bytes.length b
  | Arp _ -> Arp.size
  | Ipv4 _ -> Ipv4.size
  | Tcp _ -> Tcp.size
  | Udp _ -> Udp.size
  | Icmp _ -> Icmp.size
  | Vxlan _ -> Vxlan.size
  | Payload s -> String.length s

let encode layers =
  let total = List.fold_left (fun acc l -> acc + layer_size l) 0 layers in
  let b = Bytes.make total '\000' in
  (* Fix up length fields to cover everything below each layer. *)
  let rec fixup = function
    | [] -> []
    | layer :: rest ->
        let rest = fixup rest in
        let below = List.fold_left (fun acc l -> acc + layer_size l) 0 rest in
        let layer =
          match layer with
          | Ipv4 h -> Ipv4 { h with total_length = Ipv4.size + below }
          | Udp h -> Udp { h with length = Udp.size + below }
          | other -> other
        in
        layer :: rest
  in
  let layers = fixup layers in
  let off = ref 0 in
  List.iter
    (fun layer ->
      (match layer with
      | Eth h -> Eth.encode_into h b ~off:!off
      | Vlan h -> Vlan.encode_into h b ~off:!off
      | Sfc_raw raw -> Bytes.blit raw 0 b !off (Bytes.length raw)
      | Arp h -> Arp.encode_into h b ~off:!off
      | Ipv4 h -> Ipv4.encode_into h b ~off:!off
      | Tcp h -> Tcp.encode_into h b ~off:!off
      | Udp h -> Udp.encode_into h b ~off:!off
      | Icmp h -> Icmp.encode_into h b ~off:!off
      | Vxlan h -> Vxlan.encode_into h b ~off:!off
      | Payload s -> Bytes.blit_string s 0 b !off (String.length s));
      off := !off + layer_size layer)
    layers;
  b

let ( let* ) = Result.bind

let payload_rest b off =
  if off >= Bytes.length b then []
  else [ Payload (Bytes.sub_string b off (Bytes.length b - off)) ]

let rec decode_ethertype b off ethertype =
  if ethertype = Eth.ethertype_vlan then
    let* h = Vlan.decode b ~off in
    let* rest = decode_ethertype b (off + Vlan.size) h.Vlan.ethertype in
    Ok (Vlan h :: rest)
  else if ethertype = Eth.ethertype_sfc then
    if Bytes.length b < off + sfc_size then Error "Pkt.decode: truncated SFC"
    else
      let raw = Bytes.sub b off sfc_size in
      (* Byte 19 of the SFC header is the next-protocol discriminator:
         1 = IPv4, 2 = 802.1Q. *)
      let next = Bytes_util.get_uint8 raw 19 in
      let* rest =
        if next = 1 then decode_ethertype b (off + sfc_size) Eth.ethertype_ipv4
        else if next = 2 then
          decode_ethertype b (off + sfc_size) Eth.ethertype_vlan
        else Ok (payload_rest b (off + sfc_size))
      in
      Ok (Sfc_raw raw :: rest)
  else if ethertype = Eth.ethertype_arp then
    let* h = Arp.decode b ~off in
    Ok [ Arp h ]
  else if ethertype = Eth.ethertype_ipv4 then
    let* h = Ipv4.decode b ~off in
    let* rest = decode_proto b (off + Ipv4.size) h.Ipv4.protocol in
    Ok (Ipv4 h :: rest)
  else Ok (payload_rest b off)

and decode_proto b off proto =
  if proto = Ipv4.proto_tcp then
    let* h = Tcp.decode b ~off in
    Ok (Tcp h :: payload_rest b (off + Tcp.size))
  else if proto = Ipv4.proto_udp then
    let* h = Udp.decode b ~off in
    if h.Udp.dst_port = Udp.port_vxlan then
      let* v = Vxlan.decode b ~off:(off + Udp.size) in
      let* inner = decode b ~off:(off + Udp.size + Vxlan.size) in
      Ok (Udp h :: Vxlan v :: inner)
    else Ok (Udp h :: payload_rest b (off + Udp.size))
  else if proto = Ipv4.proto_icmp then
    let* h = Icmp.decode b ~off in
    Ok (Icmp h :: payload_rest b (off + Icmp.size))
  else Ok (payload_rest b off)

and decode b ~off =
  let* eth = Eth.decode b ~off in
  let* rest = decode_ethertype b (off + Eth.size) eth.Eth.ethertype in
  Ok (Eth eth :: rest)

let decode b = decode b ~off:0

(* --- The 5-tuple off the frame itself: the walk [decode] takes, with
   every one of its length and value checks, reading only what a
   5-tuple needs and building no layer. --- *)

(* Where [decode] meets the IPv4 header under [ethertype] at [off]: its
   offset, [-1] when the frame decodes without one, [-2] when it does
   not decode. *)
let rec ipv4_at b off ethertype =
  let len = Bytes.length b in
  if ethertype = Eth.ethertype_vlan then
    if len < off + Vlan.size then -2
    else ipv4_at b (off + Vlan.size) (Bytes_util.get_uint16 b (off + 2))
  else if ethertype = Eth.ethertype_sfc then
    if len < off + sfc_size then -2
    else
      match Bytes_util.get_uint8 b (off + 19) with
      | 1 -> ipv4_at b (off + sfc_size) Eth.ethertype_ipv4
      | 2 -> ipv4_at b (off + sfc_size) Eth.ethertype_vlan
      | _ -> -1
  else if ethertype = Eth.ethertype_arp then
    if len < off + Arp.size then -2
    else match Bytes_util.get_uint16 b (off + 6) with 1 | 2 -> -1 | _ -> -2
  else if ethertype = Eth.ethertype_ipv4 then
    (* Version 4, IHL 5. *)
    if len < off + Ipv4.size || Bytes_util.get_uint8 b off <> 0x45 then -2
    else off
  else -1

(* [decode] of the frame at [off] succeeds. *)
let rec decodes b off =
  Bytes.length b >= off + Eth.size
  &&
  match ipv4_at b (off + Eth.size) (Bytes_util.get_uint16 b (off + 12)) with
  | -2 -> false
  | -1 -> true
  | ip -> transport_decodes b (ip + Ipv4.size) (Bytes_util.get_uint8 b (ip + 9))

(* The transport header [proto] at [off] decodes, and so does the inner
   frame of a VXLAN datagram. *)
and transport_decodes b off proto =
  let len = Bytes.length b in
  if proto = Ipv4.proto_tcp then len >= off + Tcp.size
  else if proto = Ipv4.proto_udp then
    len >= off + Udp.size
    && (Bytes_util.get_uint16 b (off + 2) <> Udp.port_vxlan
       || (len >= off + Udp.size + Vxlan.size
          && decodes b (off + Udp.size + Vxlan.size)))
  else if proto = Ipv4.proto_icmp then len >= off + Icmp.size
  else true

let five_tuple_of_frame b =
  if Bytes.length b < Eth.size then None
  else
    let ip = ipv4_at b Eth.size (Bytes_util.get_uint16 b 12) in
    if ip < 0 then None
    else
      let l4 = ip + Ipv4.size and proto = Bytes_util.get_uint8 b (ip + 9) in
      if
        (proto = Ipv4.proto_tcp || proto = Ipv4.proto_udp)
        && transport_decodes b l4 proto
      then
        Some
          {
            Flow.src = Ip4.of_int64 (Bytes_util.get_uint32 b (ip + 12));
            dst = Ip4.of_int64 (Bytes_util.get_uint32 b (ip + 16));
            proto;
            src_port = Bytes_util.get_uint16 b l4;
            dst_port = Bytes_util.get_uint16 b (l4 + 2);
          }
      else None

let tcp_flow ?(payload = "") ~src_mac ~dst_mac (ft : Flow.five_tuple) =
  let l4 =
    if ft.Flow.proto = Ipv4.proto_tcp then
      Tcp (Tcp.make ~src_port:ft.Flow.src_port ~dst_port:ft.Flow.dst_port ())
    else Udp (Udp.make ~src_port:ft.Flow.src_port ~dst_port:ft.Flow.dst_port ())
  in
  [
    Eth (Eth.make ~dst:dst_mac ~src:src_mac Eth.ethertype_ipv4);
    Ipv4 (Ipv4.make ~protocol:ft.Flow.proto ~src:ft.Flow.src ~dst:ft.Flow.dst ());
    l4;
  ]
  @ if payload = "" then [] else [ Payload payload ]

let find_ipv4 t =
  List.find_map (function Ipv4 h -> Some h | _ -> None) t

let find_eth t = List.find_map (function Eth h -> Some h | _ -> None) t

let five_tuple_of t =
  match find_ipv4 t with
  | None -> None
  | Some ip ->
      let ports =
        List.find_map
          (function
            | Tcp h -> Some (h.Tcp.src_port, h.Tcp.dst_port)
            | Udp h -> Some (h.Udp.src_port, h.Udp.dst_port)
            | _ -> None)
          t
      in
      Option.map
        (fun (sp, dp) ->
          {
            Flow.src = ip.Ipv4.src;
            dst = ip.Ipv4.dst;
            proto = ip.Ipv4.protocol;
            src_port = sp;
            dst_port = dp;
          })
        ports

let pp_layer ppf = function
  | Eth h -> Eth.pp ppf h
  | Vlan h -> Vlan.pp ppf h
  | Sfc_raw b -> Format.fprintf ppf "sfc{%d bytes}" (Bytes.length b)
  | Arp h -> Arp.pp ppf h
  | Ipv4 h -> Ipv4.pp ppf h
  | Tcp h -> Tcp.pp ppf h
  | Udp h -> Udp.pp ppf h
  | Icmp h -> Icmp.pp ppf h
  | Vxlan h -> Vxlan.pp ppf h
  | Payload s -> Format.fprintf ppf "payload{%d bytes}" (String.length s)

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " / ")
    pp_layer ppf t
