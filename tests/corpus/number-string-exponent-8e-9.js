// Number to string (ECMAScript Number::toString): a quotient of 8e-9 prints as 8e-9 (one digit, no exponent padding).
// Shrunk from generate_program(1, 45); `node` prints the same.
function f1(a, b) { var s = 7; for (var i = 0; i < 120; i = i + 1) { s = ((a & b) / (s + 1e9)); } return s; }
var t1 = 0; for (var r1 = 0; r1 < 9; r1 = r1 + 1) { t1 = f1(65535, r1); } print(t1);
