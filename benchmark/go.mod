module github.com/hraft-io/hraft/benchmark

go 1.24

require github.com/hraft-io/hraft v0.0.0

replace github.com/hraft-io/hraft => ../
