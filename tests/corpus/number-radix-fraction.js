// Number.prototype.toString(radix) of a fraction prints the shortest digits that
// identify the double (V8's DoubleToRadixCString): (0.5).toString(2) is "0.1",
// (0.1).toString(3) ends in a rounded-up digit.  `node` prints the same.
print((0.5).toString(2), (0.1).toString(3), (-255.5).toString(16), (2 / 3).toString(7), (1e-7).toString(36));
function radix(x, r) { return x.toString(r); }
var out = "";
for (var i = 1; i < 40; i = i + 1) { out = out + radix(i / 7, 2 + i % 35) + " "; }
print(out);
print((Math.pow(2, 60) + 12345 * 4096).toString(3), (1e21 + 0.5).toString(5), (-0).toString(2));
