package detsim

// EncodedLen exposes encodedLen to the external tests.
func (sn *Snippet) EncodedLen() (int, error) { return sn.encodedLen() }
