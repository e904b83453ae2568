type 'a result = { verdict : [ `Pass | `Fail ]; payload : 'a }

let result ~verdict payload = { verdict; payload }

type 'a t = { label : string; body : unit -> 'a result }

let v ?(label = "job") body = { label; body }
let label t = t.label
let run t = t.body ()
