package experiments

// Survey-artifact pins, recorded on commit 0d44668 while the figures were
// still computed from the in-memory survey.Result: the SHA-256 of every
// Sec 5 renderer's output over cmd/paperfig's scale-1 surveys (IP: 400
// pairs, seed 1; router: 120 pairs, seed 1, 10 alias rounds).

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

func TestSurveyArtifactsPinned(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("paperfig's scale-1 surveys are slow")
	}
	ip, err := IPSurvey(SurveyConfig{Pairs: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	router, err := RouterSurvey(SurveyConfig{Pairs: 120, Seed: 1, Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, out, want string }{
		{"Fig 2", FormatFig2(ip), "d372d3fcf327c44910479842a35ec69ff2b8dabe4b05c1b58dbdb0368bd2f6e4"},
		{"Fig 7", FormatFig7(ip), "2de24cbb396a58d92c8cbc2ff7e6d80cb1a59c71dd22b85d4e1ec765494e8506"},
		{"Fig 8", FormatFig8(ip), "a11952fda43b78a8c73965317546d29c2e986587a1edc1a079dcf101d4a3ce9d"},
		{"Fig 9", FormatFig9(ip), "b7fff4f4aea2237b2139a8e3ebb87542c1616c95b7fe80324d0e1594a66227eb"},
		{"Fig 10", FormatFig10(ip), "156c3b6efbef408204067aae42cc139b51c80352d0d48c254602f67185394002"},
		{"Fig 11", FormatFig11(ip), "186b85cdfb4944025ef87760fea9e511e8ee1326312d3cd721f936563adf8707"},
		{"Fig 12", FormatFig12(router), "7e837641ca6c9fc7d52ef03d1ed03bc4512d364c270f0be02afdee8cd55de8dd"},
		{"Table 3", FormatTable3(router), "1b4cb4af4afaaa95e642408ecec3b896bb41f281f2d534ae9ca479f99781c04f"},
		{"Fig 13", FormatFig13(router), "c92e8353a4146f2127d8fae90f1fa44ef804ce6b9043b625c0b86b943e5ba5cc"},
		{"Fig 14", FormatFig14(router), "7dfb4706f55264c1b317638311fb6075e2a996dd3e1bbf60142efac7520d7d9e"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(c.out))); got != c.want {
			t.Errorf("%s digest %s, pinned %s", c.name, got, c.want)
		}
	}
}
