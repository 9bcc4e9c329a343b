type t = { hdr : string; field : string }

let v hdr field = { hdr; field }

let to_string t = t.hdr ^ "." ^ t.field
let equal a b = String.equal a.hdr b.hdr && String.equal a.field b.field

let compare a b =
  let c = String.compare a.hdr b.hdr in
  if c <> 0 then c else String.compare a.field b.field

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
