type 'a t = 'a Job.t array

let of_list jobs = Array.of_list jobs
let init n f = Array.init n f
let length = Array.length
let job t i = t.(i)
