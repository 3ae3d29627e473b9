open Ubpa_util

type dest = Broadcast | To of Node_id.t | Multicast of Node_id.t array
type 'm t = { src : Node_id.t; dst : dest; payload : 'm }

let broadcast ~src payload = { src; dst = Broadcast; payload }
let send ~src ~dst payload = { src; dst = To dst; payload }
let multicast ~src ~group payload = { src; dst = Multicast group; payload }

let pp_dest ppf = function
  | Broadcast -> Fmt.string ppf "*"
  | To id -> Node_id.pp ppf id
  | Multicast group ->
      Fmt.pf ppf "{%a}" Fmt.(array ~sep:(any ",") Node_id.pp) group

let pp pp_payload ppf t =
  Fmt.pf ppf "%a->%a:%a" Node_id.pp t.src pp_dest t.dst pp_payload t.payload
