module divflow/bench

go 1.22

require divflow v0.0.0

replace divflow => ../
