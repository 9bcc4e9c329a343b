(* Seeded traffic generators. A generator is a function from nothing to
   the next frame; the same seed yields the same frame sequence, and the
   program under test receives only those frames.

   Frames are Eth/IPv4/TCP built by patching a per-length template —
   addresses, ports, IPv4 checksum — which is byte-identical to
   [Netpkt.Pkt.encode] of the same flow and cheap enough that
   generation does not dominate a run. *)

let src_mac = Netpkt.Mac.of_string_exn "02:00:00:00:00:01"
let dst_mac = Netpkt.Mac.of_string_exn "02:00:00:00:00:02"

type tuple = { src : int; dst : int; sport : int; dport : int }

let min_frame = 60 (* 64 B on the wire less the 4 B FCS, which is not modelled *)
let header_len = 54 (* Ethernet + IPv4 + TCP *)

let five_tuple t =
  {
    Netpkt.Flow.src = Netpkt.Ip4.of_int64 (Int64.of_int t.src);
    dst = Netpkt.Ip4.of_int64 (Int64.of_int t.dst);
    proto = Netpkt.Ipv4.proto_tcp;
    src_port = t.sport;
    dst_port = t.dport;
  }

(* The reference encoding the patched templates must reproduce. *)
let encode ~len t =
  Netpkt.Pkt.encode
    (Netpkt.Pkt.tcp_flow
       ~payload:(String.make (max 0 (len - header_len)) '\000')
       ~src_mac ~dst_mac (five_tuple t))

type framer = (int, Bytes.t) Hashtbl.t

let framer () : framer = Hashtbl.create 4

let frame (templates : framer) ~len t =
  let tpl =
    match Hashtbl.find_opt templates len with
    | Some b -> b
    | None ->
        let b = encode ~len { src = 0; dst = 0; sport = 0; dport = 0 } in
        Hashtbl.add templates len b;
        b
  in
  let b = Bytes.copy tpl in
  let open Netpkt.Bytes_util in
  set_uint32 b 26 (Int64.of_int t.src);
  set_uint32 b 30 (Int64.of_int t.dst);
  set_uint16 b 34 t.sport;
  set_uint16 b 36 t.dport;
  set_uint16 b 24 0;
  set_uint16 b 24 (internet_checksum b ~off:14 ~len:20);
  b

let ip a b c d = (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
let ip_of v = Int64.to_int (Netpkt.Ip4.to_int64 v)
let vip = ip_of Nflib.Catalog.tenant1_vip

type t = unit -> Bytes.t

let batch (g : t) n =
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) ((0, g ()) :: acc) in
  go n []

(* Connection ids: [fresh ()] opens the next one; [revisit ()] picks
   uniformly among the [window] most recently opened (opening one when
   none is open yet). *)
let connections rng ~window =
  let recent = Array.make window 0 and opened = ref 0 in
  let fresh () =
    let k = !opened in
    recent.(k mod window) <- k;
    incr opened;
    k
  in
  let revisit () =
    if !opened = 0 then fresh ()
    else recent.(Random.State.int rng (min !opened window))
  in
  (fresh, revisit)

(* Fig. 2 with the paper's weights: red 50% (2% of all packets open a
   new LB connection, 1% come from the firewall's blocked subnet, the
   rest revisit one of the 4,096 most recent connections), orange 30%,
   green 20%. Minimum-size frames. *)
let fig2_mix ~seed : t =
  let rng = Random.State.make [| seed; 0xf162 |] in
  let fr = framer () in
  let fresh, revisit = connections rng ~window:4096 in
  let red k =
    { src = ip 100 64 0 0 + k; dst = vip; sport = 1024 + (k mod 64_000); dport = 80 }
  in
  let any_port () = 1024 + Random.State.int rng 64_000 in
  fun () ->
    let u = Random.State.int rng 10_000 in
    let t =
      if u < 200 then red (fresh ())
      else if u < 300 then
        { src = ip 198 51 100 (1 + Random.State.int rng 254); dst = vip;
          sport = any_port (); dport = 80 }
      else if u < 5000 then red (revisit ())
      else
        let tenant = if u < 8000 then 2 else 3 in
        { src = ip 100 112 0 0 + Random.State.int rng 65_536;
          dst = ip 10 0 tenant (1 + Random.State.int rng 254);
          sport = any_port (); dport = 443 }
    in
    frame fr ~len:min_frame t

(* Green-path flows with Zipf(exponent)-distributed popularity over
   [flows] flows. Each flow keeps one IMIX frame size (64/594/1518 B in
   7:4:1), fixed by its popularity rank so that every seed sends the
   same byte mix: the three hottest flows alone carry a fifth of the
   packets. The rank-to-flow mapping is a seeded bijection, so each seed
   has its own hot set. *)
let zipf_emc ~seed ~flows ~exponent : t =
  let rng = Random.State.make [| seed; 0x21bf |] in
  let fr = framer () in
  let cdf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout flows in
  let acc = ref 0.0 in
  for i = 0 to flows - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** exponent));
    Bigarray.Array1.set cdf i !acc
  done;
  let total = !acc in
  let bits =
    let rec go b = if 1 lsl b >= flows then b else go (b + 1) in
    go 1
  in
  let mask = (1 lsl bits) - 1 in
  let salt = Random.State.bits rng in
  let flow_of_rank r = ((r * 0x9E3779B1) + salt) land mask in
  let sample () =
    let u = Random.State.float rng total in
    let lo = ref 0 and hi = ref (flows - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Bigarray.Array1.get cdf mid < u then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  fun () ->
    let rank = sample () in
    let id = flow_of_rank rank in
    let len =
      match rank mod 12 with k when k < 7 -> min_frame | k when k < 11 -> 590 | _ -> 1514
    in
    frame fr ~len
      { src = ip 100 64 0 0 + id; dst = ip 10 0 3 (1 + (id mod 254));
        sport = 1024 + (id mod 60_000); dport = 443 }

(* Stateful connections to the LB VIP: 25% of packets open a new
   connection from a new source (so both the LB and the NAT punt),
   the rest revisit one of the 8,192 most recent. *)
let lb_nat_conns ~seed : t =
  let rng = Random.State.make [| seed; 0x1b4a |] in
  let fr = framer () in
  let fresh, revisit = connections rng ~window:8192 in
  fun () ->
    let k = if Random.State.int rng 4 = 0 then fresh () else revisit () in
    frame fr ~len:min_frame
      { src = ip 10 64 0 0 + k; dst = vip; sport = 40_000 + (k mod 16_384); dport = 80 }
