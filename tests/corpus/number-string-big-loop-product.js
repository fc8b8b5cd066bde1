// Number to string (ECMAScript Number::toString): a loop-carried product past 2**53 prints 4608871268661592000.
// Shrunk from generate_program(1, 65); `node` prints the same.
function f0(a, b) { var s = 255; for (var i = 0; i < 40; i = i + 1) { s = ((-2147483647) * (65535 | s)); if (s == (-2147483648)) { s = b; } } return s; }
print(f0(2147483647, 256));
