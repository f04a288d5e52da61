package detsim

import "slices"

// EncodedLen exposes encodedLen to the external tests.
func (sn *Snippet) EncodedLen() (int, error) { return sn.encodedLen() }

// WithoutSums returns a copy of sn whose image pages carry no sums, as
// DecodeSnippet builds them: what a round trip through the encoding
// must give back. The copy shares every byte slice with sn.
func WithoutSums(sn *Snippet) *Snippet {
	cp := *sn
	cp.Buffers = slices.Clone(sn.Buffers)
	for i := range cp.Buffers {
		img := slices.Clone(cp.Buffers[i].Image)
		for j := range img {
			img[j].sum = nil
		}
		cp.Buffers[i].Image = img
	}
	return &cp
}
