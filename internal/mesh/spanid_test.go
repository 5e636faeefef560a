package mesh

import (
	"fmt"
	"testing"
)

// sscanfSpanID is the reference parseSpanID must reproduce.
func sscanfSpanID(s string) uint64 {
	var id uint64
	fmt.Sscanf(s, "%x", &id)
	return id
}

func TestParseSpanIDMatchesSscanf(t *testing.T) {
	for _, c := range []struct {
		in   string
		want uint64
	}{
		{"", 0},
		{"0", 0},
		{"1a2b", 0x1a2b},
		{"DEADbeef", 0xdeadbeef},
		{"12zz", 0x12},           // leading-hex prefix
		{"zz12", 0},              // no leading digits
		{"0x12", 0},              // %x takes no base prefix
		{"  \t7f", 0x7f},         // leading space
		{"\u3000\u00a0ff", 0xff}, // multi-byte white space
		{"\u0085a", 0xa},         // NEL is space, not newline
		{"\n5", 0},               // newline is an error
		{"\r\n5", 0},             // so is CRLF
		{" ", 0},
		{"+5", 0},
		{"-5", 0},
		{"1_0", 1},
		{"ffffffffffffffff", 1<<64 - 1},
		{"00000000000000000000ff", 0xff}, // long but in range
		{"10000000000000000", 0},         // overflow
		{"fffffffffffffffff", 0},         // overflow
		{"\xff12", 0},                    // invalid UTF-8 is not space
		{"a\xff", 0xa},
	} {
		if got := parseSpanID(c.in); got != c.want {
			t.Errorf("parseSpanID(%q) = %#x, want %#x", c.in, got, c.want)
		}
		if ref := sscanfSpanID(c.in); ref != c.want {
			t.Errorf("table row %q: Sscanf gives %#x, table says %#x", c.in, ref, c.want)
		}
	}
}

func TestFormatSpanIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{0, 1, 0xabc, 1<<63 + 5, 1<<64 - 1} {
		s := formatSpanID(id)
		if want := fmt.Sprintf("%x", id); s != want {
			t.Errorf("formatSpanID(%#x) = %q, want %q", id, s, want)
		}
		if back := parseSpanID(s); back != id {
			t.Errorf("parseSpanID(formatSpanID(%#x)) = %#x", id, back)
		}
	}
}

// FuzzParseSpanID checks parseSpanID against fmt.Sscanf as an oracle
// on arbitrary input, and formatSpanID against fmt's %x.
func FuzzParseSpanID(f *testing.F) {
	for _, s := range []string{"", "1a2b", "12zz", " \tff", "\n1", "\r\n1", "10000000000000000", "\u3000a", "\xffa"} {
		f.Add(s, uint64(0x1a2b))
	}
	f.Fuzz(func(t *testing.T, s string, id uint64) {
		if got, want := parseSpanID(s), sscanfSpanID(s); got != want {
			t.Fatalf("parseSpanID(%q) = %#x, Sscanf gives %#x", s, got, want)
		}
		if got, want := formatSpanID(id), fmt.Sprintf("%x", id); got != want {
			t.Fatalf("formatSpanID(%#x) = %q, want %q", id, got, want)
		}
	})
}
