type verdict = Pass | Fail | Crash of string

type 'a t = {
  index : int;
  label : string;
  verdict : verdict;
  payload : 'a option;
}

let passed o = match o.verdict with Pass -> true | Fail | Crash _ -> false

let verdict_name = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Crash _ -> "crash"
