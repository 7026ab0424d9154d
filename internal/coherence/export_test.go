package coherence

import "unsafe"

// FootprintBytes is what the run kept in cache tag chunks and value
// pages, summed from their lengths: a host-independent measure of the
// coherence layer's per-run state.
func (s *System) FootprintBytes() int {
	n := 0
	for _, c := range s.ctrls {
		for _, a := range []*cacheArray{c.l1, c.l2} {
			for _, chunk := range a.chunks {
				n += len(chunk) * int(unsafe.Sizeof(cacheEntry{}))
			}
		}
	}
	return n + s.Vals.pageCount()*int(unsafe.Sizeof(page{}))
}
