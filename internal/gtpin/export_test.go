package gtpin

import "gtpin/internal/device"

// TraceBuf exposes an instance's trace buffer, nil once detached, to the
// external tests.
func (g *GTPin) TraceBuf() *device.Buffer { return g.traceBuf }
