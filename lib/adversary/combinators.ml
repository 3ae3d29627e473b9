open Ubpa_util
open Ubpa_sim

let switch_at ~round before after =
  Strategy.v
    ~name:
      (Printf.sprintf "switch-at-%d(%s,%s)" round (Strategy.name before)
         (Strategy.name after))
    (fun rng self ->
      let before = Strategy.instantiate before (Rng.split rng) self in
      let after = Strategy.instantiate after (Rng.split rng) self in
      fun view ->
        if view.Strategy.round < round then before view else after view)

let merge strategies =
  Strategy.v
    ~name:
      (Printf.sprintf "merge(%s)"
         (String.concat "," (List.map Strategy.name strategies)))
    (fun rng self ->
      let acts =
        List.map
          (fun s -> Strategy.instantiate s (Rng.split rng) self)
          strategies
      in
      fun view -> List.concat_map (fun act -> act view) acts)

let only_rounds pred inner =
  Strategy.v
    ~name:(Printf.sprintf "gated(%s)" (Strategy.name inner))
    (fun rng self ->
      let act = Strategy.instantiate inner (Rng.split rng) self in
      fun view -> if pred view.Strategy.round then act view else [])

let target_subset ~fraction inner =
  Strategy.v
    ~name:(Printf.sprintf "subset-%.2f(%s)" fraction (Strategy.name inner))
    (fun rng self ->
      let act = Strategy.instantiate inner (Rng.split rng) self in
      fun view ->
        let correct = view.Strategy.correct in
        let k =
          int_of_float (ceil (fraction *. float_of_int (List.length correct)))
        in
        let targets = List.filteri (fun i _ -> i < k) correct in
        List.concat_map
          (fun (dest, payload) ->
            match dest with
            | Envelope.Broadcast ->
                List.map (fun t -> (Envelope.To t, payload)) targets
            | Envelope.To t ->
                if List.exists (Node_id.equal t) targets then
                  [ (Envelope.To t, payload) ]
                else []
            | Envelope.Multicast group ->
                let kept =
                  List.filter
                    (fun t -> Array.exists (Node_id.equal t) group)
                    targets
                in
                if kept = [] then []
                else [ (Envelope.Multicast (Array.of_list kept), payload) ])
          (act view))

let with_probability p inner =
  Strategy.v
    ~name:(Printf.sprintf "p=%.2f(%s)" p (Strategy.name inner))
    (fun rng self ->
      let coin = Rng.split rng in
      let act = Strategy.instantiate inner (Rng.split rng) self in
      fun view -> if Rng.float coin 1.0 < p then act view else [])
