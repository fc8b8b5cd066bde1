// Number to string (ECMAScript Number::toString): "" + a tiny negative double uses ECMAScript's exponent form,
// -1.1641531995668609e-9, not Python's e-09.
// Shrunk from generate_program(1, 23); `node` prints the same.
function f0(a, b) { var s = (-2147483648); for (var i = 0; i < 40; i = i + 1) { s = ((a - 2147483646) - (i ^ "x7")); if (s < 1) { s = (a / s); } } return "" + s; }
print(f0(2.5, 256));
