// Number to string (ECMAScript Number::toString): "" + (b & s) + a * a with a = -2**31 prints 4611686018427388000.
// Shrunk from generate_program(2, 46); `node` prints the same.
function f2(a, b) { var s = (-1); for (var i = 0; i < 2; i = i + 1) { s = ((b & s) + (a * a)); b = (1023 + a); } return "" + s; }
print(f2((-2147483648), 256));
