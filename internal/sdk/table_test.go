package sdk

import (
	"fmt"
	"net/url"
	"testing"
)

// keyEscRuneLoop is the rune-at-a-time escaping keyEsc replaced; keyEsc
// must stay byte-identical to it.
func keyEscRuneLoop(k string) string {
	out := ""
	for _, r := range k {
		if r == '\'' {
			out += "''"
			continue
		}
		out += string(r)
	}
	return url.PathEscape(out)
}

func TestKeyEscMatchesRuneLoop(t *testing.T) {
	keys := []string{
		"", "r00427", "a'b", "''", "'", "it's a 'key'",
		"é", "日本語", "a/b?c#d%e f+g", "\x00\x7f",
		"\xff", "a\xff\xfeb", "\xe2\x82", "\xe2\x82'\xac", "\xef\xbf\xbd", "x\xed\xa0\x80y",
	}
	for _, k := range keys {
		if got, want := keyEsc(k), keyEscRuneLoop(k); got != want {
			t.Errorf("keyEsc(%q) = %q, want %q", k, got, want)
		}
		for _, table := range []string{"orders", "a b"} {
			want := fmt.Sprintf("/table/%s(PartitionKey='%s',RowKey='%s')",
				esc(table), keyEscRuneLoop(k), keyEscRuneLoop(k+"'"))
			if got := entityPath(table, k, k+"'"); got != want {
				t.Errorf("entityPath(%q, %q) = %q, want %q", table, k, got, want)
			}
		}
	}
}
