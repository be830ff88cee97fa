module multilogvc/bench

go 1.23

require multilogvc v0.0.0

replace multilogvc => ../
