// Number to string (ECMAScript Number::toString): a quotient of 1e-9 prints as 1e-9 (one digit, no exponent padding).
// Shrunk from generate_program(1, 44); `node` prints the same.
function f1(a, b) { var s = 2147483646; for (var i = 0; i < 120; i = i + 1) { s = ((b <= 255 ? (-1) : a) / (-a)); if (s > 1) { s = ((-2147483647) == 1e9 ? 2147483646 : 2147483646); } } return s; }
var t1 = 0; for (var r1 = 0; r1 < 40; r1 = r1 + 1) { t1 = f1(1e9, r1); } print(t1);
